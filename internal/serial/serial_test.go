package serial

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"sparseroute/internal/core"
	"sparseroute/internal/demand"
	"sparseroute/internal/flow"
	"sparseroute/internal/graph"
	"sparseroute/internal/graph/gen"
	"sparseroute/internal/oblivious"
)

func TestGraphRoundTrip(t *testing.T) {
	g := gen.SyntheticWAN(12, 10, rand.New(rand.NewPCG(1, 1)))
	var buf bytes.Buffer
	if err := EncodeGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := DecodeGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("shape mismatch: %v vs %v", g2, g)
	}
	for i := 0; i < g.NumEdges(); i++ {
		a, b := g.Edge(i), g2.Edge(i)
		if a.U != b.U || a.V != b.V || a.Capacity != b.Capacity {
			t.Fatalf("edge %d mismatch: %+v vs %+v", i, a, b)
		}
	}
}

func TestDecodeGraphRejectsBadEdges(t *testing.T) {
	cases := []string{
		`{"vertices":2,"edges":[{"u":0,"v":5,"capacity":1}]}`,
		`{"vertices":2,"edges":[{"u":0,"v":0,"capacity":1}]}`,
		`{"vertices":2,"edges":[{"u":0,"v":1,"capacity":0}]}`,
		`{"vertices":-1,"edges":[]}`,
		`not json`,
	}
	for i, c := range cases {
		if _, err := DecodeGraph(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d should be rejected", i)
		}
	}
}

func TestDemandRoundTrip(t *testing.T) {
	d := demand.New()
	d.Set(0, 3, 2.5)
	d.Set(1, 2, 1)
	var buf bytes.Buffer
	if err := EncodeDemand(&buf, d); err != nil {
		t.Fatal(err)
	}
	d2, err := DecodeDemand(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !demand.Equal(d, d2, 1e-12) {
		t.Fatalf("demands differ: %v vs %v", d, d2)
	}
}

func TestDecodeDemandRejectsBadEntries(t *testing.T) {
	cases := []string{
		`{"entries":[{"u":1,"v":1,"amount":1}]}`,
		`{"entries":[{"u":0,"v":1,"amount":0}]}`,
		`nope`,
	}
	for i, c := range cases {
		if _, err := DecodeDemand(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d should be rejected", i)
		}
	}
}

func TestPathSystemRoundTrip(t *testing.T) {
	g := gen.Hypercube(3)
	router, err := oblivious.NewValiant(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	pairs := []demand.Pair{{U: 0, V: 7}, {U: 1, V: 6}}
	ps, err := core.RSample(router, pairs, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodePathSystem(&buf, ps); err != nil {
		t.Fatal(err)
	}
	ps2, err := DecodePathSystem(bytes.NewReader(buf.Bytes()), g)
	if err != nil {
		t.Fatal(err)
	}
	if ps2.TotalPaths() != ps.TotalPaths() || ps2.Sparsity() != ps.Sparsity() {
		t.Fatalf("system shape mismatch: %d/%d vs %d/%d",
			ps2.TotalPaths(), ps2.Sparsity(), ps.TotalPaths(), ps.Sparsity())
	}
	for _, pr := range pairs {
		a := ps.Unique(pr.U, pr.V)
		b := ps2.Unique(pr.U, pr.V)
		if len(a) != len(b) {
			t.Fatalf("pair %v unique mismatch", pr)
		}
	}
	if err := ps2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDecodePathSystemValidatesPaths(t *testing.T) {
	g := gen.Ring(4)
	bad := `{"pairs":[{"u":0,"v":2,"paths":[[0,3]]}]}`
	if _, err := DecodePathSystem(strings.NewReader(bad), g); err == nil {
		t.Fatal("disconnected edge sequence should be rejected")
	}
}

func TestRoutingRoundTrip(t *testing.T) {
	g := gen.Grid(3, 3)
	p1, _ := g.ShortestPathHops(0, 8)
	p2, _ := g.ShortestPathHops(2, 6)
	r := flow.New()
	r.AddFlow(p1, 1.5)
	r.AddFlow(p2, 2)
	var buf bytes.Buffer
	if err := EncodeRouting(&buf, g, r); err != nil {
		t.Fatal(err)
	}
	r2, err := DecodeRouting(bytes.NewReader(buf.Bytes()), g)
	if err != nil {
		t.Fatal(err)
	}
	if r2.TotalFlow() != r.TotalFlow() {
		t.Fatalf("flow mismatch: %v vs %v", r2.TotalFlow(), r.TotalFlow())
	}
	if r2.MaxCongestion(g) != r.MaxCongestion(g) {
		t.Fatalf("congestion mismatch")
	}
}

// referenceRoutingJSON is the struct-plus-encoding/json path AppendRouting
// replaced, kept as its reference: pair order from a throwaway demand, and a
// Reverse copy for every path stored from the pair's V.
func referenceRoutingJSON(r flow.Routing) routingJSON {
	var out routingJSON
	d := demand.New()
	for pr := range r {
		d.Set(pr.U, pr.V, 1)
	}
	for _, pr := range d.Support() {
		pf := pairFlowsJSON{U: pr.U, V: pr.V}
		for _, wp := range r[pr] {
			ids := wp.Path.EdgeIDs
			if wp.Path.Src != pr.U {
				ids = wp.Path.Reverse().EdgeIDs
			}
			if ids == nil {
				ids = []int{}
			}
			pf.Paths = append(pf.Paths, weightedPathJSON{Edges: ids, Weight: wp.Weight})
		}
		out.Pairs = append(out.Pairs, pf)
	}
	return out
}

// referenceRoutingBytes is json.Compact of what the reference's indented
// encoder wrote.
func referenceRoutingBytes(t *testing.T, r flow.Routing) []byte {
	t.Helper()
	var indented, compact bytes.Buffer
	enc := json.NewEncoder(&indented)
	enc.SetIndent("", " ")
	if err := enc.Encode(referenceRoutingJSON(r)); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&compact, indented.Bytes()); err != nil {
		t.Fatal(err)
	}
	return compact.Bytes()
}

// specialWeights are the float forms encoding/json writes differently: the
// 'f'/'e' switch at 1e-6 and 1e21, the smallest subnormal, and integers.
var specialWeights = []float64{1, 0.1, 1e-7, 5e-324, 1e21, 123456789}

// routingFixture routes `pairs` seeded pairs of g: every third pair over one
// shortest path, the others over two — one stored from the pair's U, one
// found from V and so stored reversed. Weights cycle through specialWeights,
// then arbitrary finite positive bit patterns.
func routingFixture(t *testing.T, g *graph.Graph, pairs int, rng *rand.Rand) flow.Routing {
	t.Helper()
	r := flow.New()
	weight := func() float64 {
		if k := r.SupportSize(); k < len(specialWeights) {
			return specialWeights[k]
		}
		for {
			w := math.Float64frombits(rng.Uint64() &^ (1 << 63))
			if !math.IsNaN(w) && !math.IsInf(w, 0) && w > 0 {
				return w
			}
		}
	}
	for i := 0; i < pairs; i++ {
		u := rng.IntN(g.NumVertices())
		v := (u + 1 + rng.IntN(g.NumVertices()-1)) % g.NumVertices()
		fromU, err := g.ShortestPathHops(min(u, v), max(u, v))
		if err != nil {
			t.Fatal(err)
		}
		r.AddFlow(fromU, weight())
		if i%3 == 0 {
			continue
		}
		fromV, err := g.ShortestPathHops(max(u, v), min(u, v))
		if err != nil {
			t.Fatal(err)
		}
		r.AddFlow(fromV, weight())
	}
	return r
}

// TestAppendRoutingMatchesEncodingJSON pins the append encoder byte for byte
// to json.Compact of the reflection path it replaced, and DecodeRouting to
// reading every weight back bit-exactly.
func TestAppendRoutingMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(30, 30))
	grid, wan, ring := gen.Grid(6, 6), gen.SyntheticWAN(24, 20, rand.New(rand.NewPCG(7, 7))), gen.Ring(4)
	single := flow.New()
	p, _ := ring.ShortestPathHops(3, 1) // stored from V
	single.AddFlow(p, 0.1)
	for _, c := range []struct {
		name string
		g    *graph.Graph
		r    flow.Routing
	}{
		{"grid", grid, routingFixture(t, grid, 60, rng)},
		{"wan", wan, routingFixture(t, wan, 60, rng)},
		{"single-reversed", ring, single},
		{"pair-without-paths", ring, flow.Routing{demand.MakePair(0, 2): nil}},
		{"empty", ring, flow.New()},
		{"nil", ring, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, err := AppendRouting([]byte("prefix"), c.r)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(got, []byte("prefix")) {
				t.Fatalf("AppendRouting dropped the bytes it was appending to")
			}
			got = got[len("prefix"):]
			if want := referenceRoutingBytes(t, c.r); !bytes.Equal(got, want) {
				t.Fatalf("bytes differ from encoding/json:\ngot  %s\nwant %s", got, want)
			}
			var buf bytes.Buffer
			if err := EncodeRouting(&buf, c.g, c.r); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), append(got, '\n')) {
				t.Fatalf("EncodeRouting is not AppendRouting plus a newline:\n%s", buf.Bytes())
			}
			back, err := DecodeRouting(&buf, c.g)
			if err != nil {
				t.Fatal(err)
			}
			routed := 0 // a pair with no paths decodes to no pair
			for _, wps := range c.r {
				if len(wps) > 0 {
					routed++
				}
			}
			if len(back) != routed {
				t.Fatalf("decoded %d pairs, want %d", len(back), routed)
			}
			for pr, wps := range c.r {
				dec := back[pr]
				if len(dec) != len(wps) {
					t.Fatalf("pair %v: decoded %d paths, want %d", pr, len(dec), len(wps))
				}
				for i, wp := range wps {
					if math.Float64bits(dec[i].Weight) != math.Float64bits(wp.Weight) {
						t.Fatalf("pair %v path %d: weight %v decoded as %v", pr, i, wp.Weight, dec[i].Weight)
					}
					if dec[i].Path.Key() != wp.Path.Key() {
						t.Fatalf("pair %v path %d: route changed", pr, i)
					}
				}
			}
		})
	}
}

// TestAppendRoutingRejectsNonFinite: a NaN or infinite weight is an error,
// as json.Marshal makes it.
func TestAppendRoutingRejectsNonFinite(t *testing.T) {
	g := gen.Ring(4)
	p, _ := g.ShortestPathHops(0, 2)
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r := flow.Routing{demand.MakePair(0, 2): {{Path: p, Weight: w}}}
		if _, err := json.Marshal(referenceRoutingJSON(r)); err == nil {
			t.Fatalf("reference accepted weight %v", w)
		}
		if _, err := AppendRouting(nil, r); err == nil {
			t.Fatalf("AppendRouting accepted weight %v", w)
		}
		if err := EncodeRouting(io.Discard, g, r); err == nil {
			t.Fatalf("EncodeRouting accepted weight %v", w)
		}
	}
}

func TestDecodeRoutingValidates(t *testing.T) {
	g := gen.Ring(4)
	bad := `{"pairs":[{"u":0,"v":1,"paths":[{"edges":[0],"weight":-1}]}]}`
	if _, err := DecodeRouting(strings.NewReader(bad), g); err == nil {
		t.Fatal("negative weight should be rejected")
	}
	bad2 := `{"pairs":[{"u":0,"v":2,"paths":[{"edges":[0],"weight":1}]}]}`
	if _, err := DecodeRouting(strings.NewReader(bad2), g); err == nil {
		t.Fatal("wrong endpoint should be rejected")
	}
}
