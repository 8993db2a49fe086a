package flow

import (
	"math"
	"math/rand/v2"
	"testing"

	"sparseroute/internal/demand"
	"sparseroute/internal/graph"
)

// diamond: 0-1-3 and 0-2-3, plus direct 0-3 edge with capacity 2.
func diamond() (*graph.Graph, []int) {
	g := graph.New(4)
	ids := []int{
		g.AddUnitEdge(0, 1), // 0
		g.AddUnitEdge(1, 3), // 1
		g.AddUnitEdge(0, 2), // 2
		g.AddUnitEdge(2, 3), // 3
		g.AddEdge(0, 3, 2),  // 4
	}
	return g, ids
}

func TestAddFlowAndLoads(t *testing.T) {
	g, ids := diamond()
	r := New()
	r.AddFlow(graph.Path{Src: 0, Dst: 3, EdgeIDs: []int{ids[0], ids[1]}}, 1)
	r.AddFlow(graph.Path{Src: 0, Dst: 3, EdgeIDs: []int{ids[4]}}, 3)
	loads := r.EdgeLoads(g)
	if loads[ids[0]] != 1 || loads[ids[1]] != 1 || loads[ids[4]] != 3 {
		t.Fatalf("loads=%v", loads)
	}
	// Max congestion: edge 4 has load 3 over capacity 2 = 1.5.
	if c := r.MaxCongestion(g); c != 1.5 {
		t.Fatalf("congestion=%v, want 1.5", c)
	}
	if r.TotalFlow() != 4 {
		t.Fatalf("total=%v", r.TotalFlow())
	}
	if r.flowFor(3, 0) != 4 {
		t.Fatalf("flowFor=%v (should be endpoint-order independent)", r.flowFor(3, 0))
	}
}

func TestAddFlowIgnoresNonPositive(t *testing.T) {
	r := New()
	r.AddFlow(graph.Path{Src: 0, Dst: 1, EdgeIDs: []int{0}}, 0)
	r.AddFlow(graph.Path{Src: 0, Dst: 1, EdgeIDs: []int{0}}, -1)
	if len(r) != 0 {
		t.Fatal("zero/negative flow should be dropped")
	}
}

func TestDilation(t *testing.T) {
	g, ids := diamond()
	_ = g
	r := New()
	r.AddFlow(graph.Path{Src: 0, Dst: 3, EdgeIDs: []int{ids[0], ids[1]}}, 0.5)
	r.AddFlow(graph.Path{Src: 0, Dst: 3, EdgeIDs: []int{ids[4]}}, 0.5)
	if d := r.Dilation(); d != 2 {
		t.Fatalf("dilation=%d, want 2", d)
	}
	if New().Dilation() != 0 {
		t.Fatal("empty routing dilation should be 0")
	}
}

func TestValidateCatchesBadPaths(t *testing.T) {
	g, ids := diamond()
	r := New()
	r.AddFlow(graph.Path{Src: 0, Dst: 3, EdgeIDs: []int{ids[0]}}, 1) // ends at 1, not 3
	if err := r.Validate(g); err == nil {
		t.Fatal("invalid walk should fail validation")
	}
	r2 := New()
	// Path registered under the wrong pair.
	r2[demand.MakePair(1, 2)] = []WeightedPath{{Path: graph.Path{Src: 0, Dst: 3, EdgeIDs: []int{ids[4]}}, Weight: 1}}
	if err := r2.Validate(g); err == nil {
		t.Fatal("mismatched pair should fail validation")
	}
	r3 := New()
	r3[demand.MakePair(0, 3)] = []WeightedPath{{Path: graph.Path{Src: 0, Dst: 3, EdgeIDs: []int{ids[4]}}, Weight: -1}}
	if err := r3.Validate(g); err == nil {
		t.Fatal("negative weight should fail validation")
	}
}

func TestValidateRoutes(t *testing.T) {
	g, ids := diamond()
	d := demand.New()
	d.Set(0, 3, 2)
	r := New()
	r.AddFlow(graph.Path{Src: 0, Dst: 3, EdgeIDs: []int{ids[0], ids[1]}}, 1)
	r.AddFlow(graph.Path{Src: 0, Dst: 3, EdgeIDs: []int{ids[4]}}, 1)
	if err := r.ValidateRoutes(g, d, 1e-9); err != nil {
		t.Fatal(err)
	}
	r.AddFlow(graph.Path{Src: 0, Dst: 3, EdgeIDs: []int{ids[4]}}, 1)
	if err := r.ValidateRoutes(g, d, 1e-9); err == nil {
		t.Fatal("over-routing should fail")
	}
	extra := New()
	extra.AddFlow(graph.Path{Src: 0, Dst: 1, EdgeIDs: []int{ids[0]}}, 1)
	if err := extra.ValidateRoutes(g, d, 1e-9); err == nil {
		t.Fatal("flow without demand should fail")
	}
}

func TestIsIntegral(t *testing.T) {
	g, ids := diamond()
	_ = g
	r := New()
	r.AddFlow(graph.Path{Src: 0, Dst: 3, EdgeIDs: []int{ids[4]}}, 2)
	if !r.IsIntegral(1e-9) {
		t.Fatal("integral routing misclassified")
	}
	r.AddFlow(graph.Path{Src: 0, Dst: 3, EdgeIDs: []int{ids[0], ids[1]}}, 0.5)
	if r.IsIntegral(1e-9) {
		t.Fatal("fractional routing misclassified")
	}
}

func TestScaleAndMergeCongestionSubadditive(t *testing.T) {
	g, ids := diamond()
	a := New()
	a.AddFlow(graph.Path{Src: 0, Dst: 3, EdgeIDs: []int{ids[4]}}, 2)
	b := New()
	b.AddFlow(graph.Path{Src: 0, Dst: 3, EdgeIDs: []int{ids[0], ids[1]}}, 1)
	b.AddFlow(graph.Path{Src: 0, Dst: 3, EdgeIDs: []int{ids[4]}}, 1)
	m := Merge(a, b)
	if m.MaxCongestion(g) > a.MaxCongestion(g)+b.MaxCongestion(g)+1e-12 {
		t.Fatal("congestion not subadditive under Merge (Lemma 5.15)")
	}
	if got := m.TotalFlow(); got != 4 {
		t.Fatalf("merged total=%v", got)
	}
	half := m.scale(0.5)
	if math.Abs(half.MaxCongestion(g)-m.MaxCongestion(g)/2) > 1e-12 {
		t.Fatal("congestion not linear under Scale")
	}
	if zero := m.scale(0); zero.TotalFlow() != 0 {
		t.Fatal("zero scale should drop all flow")
	}
}

func TestHotEdges(t *testing.T) {
	g, ids := diamond()
	r := New()
	r.AddFlow(graph.Path{Src: 0, Dst: 3, EdgeIDs: []int{ids[4]}}, 3)         // cap 2 -> cong 1.5
	r.AddFlow(graph.Path{Src: 0, Dst: 3, EdgeIDs: []int{ids[0], ids[1]}}, 1) // cong 1
	hot := r.HotEdges(g, 2)
	if len(hot) != 2 {
		t.Fatalf("got %d entries", len(hot))
	}
	if hot[0].EdgeID != ids[4] || hot[0].Congestion != 1.5 || hot[0].Load != 3 {
		t.Fatalf("hottest entry wrong: %+v", hot[0])
	}
	if hot[1].Congestion > hot[0].Congestion {
		t.Fatal("entries not sorted")
	}
	all := r.HotEdges(g, 0)
	if len(all) != 3 {
		t.Fatalf("unbounded k should return all loaded edges, got %d", len(all))
	}
	if len(New().HotEdges(g, 5)) != 0 {
		t.Fatal("empty routing should have no hot edges")
	}
}

func TestCompact(t *testing.T) {
	g, ids := diamond()
	_ = g
	r := New()
	p := graph.Path{Src: 0, Dst: 3, EdgeIDs: []int{ids[4]}}
	r.AddFlow(p, 1)
	r.AddFlow(p, 2)
	r.AddFlow(p.Reverse(), 1) // same physical path, reverse orientation
	r.AddFlow(graph.Path{Src: 0, Dst: 3, EdgeIDs: []int{ids[0], ids[1]}}, 1)
	c := r.Compact()
	if c.SupportSize() != 2 {
		t.Fatalf("compact support=%d, want 2", c.SupportSize())
	}
	if math.Abs(c.TotalFlow()-5) > 1e-12 {
		t.Fatalf("compact total=%v, want 5", c.TotalFlow())
	}
}

// TestEdgeLoadsBitIdentical: EdgeLoads sums the pairs in sorted order, so
// repeated calls over one many-pair routing agree to the last bit. Summed in
// map order, the loads of one routing differ in the last ULP from call to
// call, and so does every congestion computed from them.
func TestEdgeLoadsBitIdentical(t *testing.T) {
	g := graph.New(301)
	trunk := g.AddUnitEdge(0, 1)
	rng := rand.New(rand.NewPCG(12, 12))
	r := New()
	for i := 1; i <= 300; i++ {
		w := rng.Float64() * math.Pow(10, float64(rng.IntN(6)))
		r[demand.MakePair(0, i)] = []WeightedPath{{Path: graph.Path{Src: 0, Dst: i, EdgeIDs: []int{trunk}}, Weight: w}}
	}
	want := r.EdgeLoads(g)[trunk]
	for i := 0; i < 50; i++ {
		if got := r.EdgeLoads(g)[trunk]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: trunk load %v, first call %v", i+2, got, want)
		}
	}
}
