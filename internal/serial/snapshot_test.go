package serial

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"sparseroute/internal/core"
	"sparseroute/internal/graph/gen"
	"sparseroute/internal/oblivious"
)

func TestSnapshotRoundTrip(t *testing.T) {
	g := gen.Hypercube(4)
	router, err := oblivious.NewValiant(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := core.RSample(router, core.AllPairs(g.NumVertices()), 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{Router: "valiant", R: 3, Seed: 7, Graph: g, System: ps}

	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Router != "valiant" || got.R != 3 || got.Seed != 7 {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	if got.Graph.NumVertices() != g.NumVertices() || got.Graph.NumEdges() != g.NumEdges() {
		t.Fatalf("graph shape mismatch: %v vs %v", got.Graph, g)
	}
	if h1, h2 := PathSystemHash(ps), PathSystemHash(got.System); h1 != h2 {
		t.Fatalf("hash changed across round trip: %016x vs %016x", h1, h2)
	}
	if got.System.TotalPaths() != ps.TotalPaths() || got.System.Sparsity() != ps.Sparsity() {
		t.Fatalf("system shape mismatch")
	}
}

// TestSnapshotRoundTripFuzz drives many randomized systems (random
// topologies, random sample counts, random seeds) through the codec and
// checks the canonical hash is a round-trip invariant.
func TestSnapshotRoundTripFuzz(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xfa22, 1))
	for trial := 0; trial < 25; trial++ {
		var g = gen.SyntheticWAN(8+rng.IntN(10), 6+rng.IntN(10), rng)
		router := oblivious.NewKSP(g, 1+rng.IntN(3), nil)
		pairs := core.AllPairs(g.NumVertices())
		// Keep a random subset of pairs to vary coverage.
		var kept = pairs[:1+rng.IntN(len(pairs))]
		seed := rng.Uint64()
		r := 1 + rng.IntN(4)
		ps, err := core.RSample(router, kept, r, seed)
		if err != nil {
			t.Fatalf("trial %d: sample: %v", trial, err)
		}
		snap := &Snapshot{Router: "ksp", R: r, Seed: seed, Graph: g, System: ps}
		var buf bytes.Buffer
		if err := EncodeSnapshot(&buf, snap); err != nil {
			t.Fatalf("trial %d: encode: %v", trial, err)
		}
		got, err := DecodeSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if PathSystemHash(got.System) != PathSystemHash(ps) {
			t.Fatalf("trial %d: hash not invariant", trial)
		}
		// Encoding the decoded snapshot must be byte-identical (canonical
		// form is a fixpoint).
		var buf2 bytes.Buffer
		if err := EncodeSnapshot(&buf2, got); err != nil {
			t.Fatalf("trial %d: re-encode: %v", trial, err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("trial %d: re-encode not canonical", trial)
		}
	}
}

func TestDecodeSnapshotRejectsBadInput(t *testing.T) {
	cases := []string{
		`not json`,
		`{"version":0}`,
		`{"version":99,"graph":{"vertices":2,"edges":[]},"system":{"pairs":[]}}`,
		`{"version":1,"graph":{"vertices":-1,"edges":[]},"system":{"pairs":[]}}`,
		// Path referencing an unknown edge.
		`{"version":1,"graph":{"vertices":2,"edges":[{"u":0,"v":1,"capacity":1}]},"system":{"pairs":[{"u":0,"v":1,"paths":[[5]]}]}}`,
	}
	for i, c := range cases {
		if _, err := DecodeSnapshot(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d should be rejected", i)
		}
	}
}

func TestPathSystemHashDistinguishesSystems(t *testing.T) {
	g := gen.Hypercube(3)
	router := oblivious.NewSPF(g)
	a, err := core.RSample(router, core.AllPairs(g.NumVertices()), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.RSample(router, core.AllPairs(g.NumVertices())[:4], 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if PathSystemHash(a) == PathSystemHash(b) {
		t.Fatal("different systems should hash differently")
	}
}

// TestSnapshotFailedEdgesRoundTrip covers the v2 wire format: the failed-edge
// set survives the round trip sorted and deduped, v1 snapshots (no
// failed_edges key) decode to an empty set, and out-of-range or duplicate
// entries are rejected on both encode and decode.
func TestSnapshotFailedEdgesRoundTrip(t *testing.T) {
	g := gen.Hypercube(3)
	router := oblivious.NewSPF(g)
	ps, err := core.RSample(router, core.AllPairs(g.NumVertices()), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{Router: "spf", R: 2, Seed: 3, Graph: g, System: ps,
		FailedEdges: []int{5, 0, 7}}

	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.FailedEdges) != 3 || got.FailedEdges[0] != 0 || got.FailedEdges[1] != 5 || got.FailedEdges[2] != 7 {
		t.Fatalf("failed edges %v, want [0 5 7]", got.FailedEdges)
	}
	if PathSystemHash(got.System) != PathSystemHash(ps) {
		t.Fatal("hash not invariant with failed edges present")
	}

	// No failures: the key is omitted entirely (canonical form).
	var clean bytes.Buffer
	if err := EncodeSnapshot(&clean, &Snapshot{Router: "spf", R: 2, Seed: 3, Graph: g, System: ps}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(clean.String(), "failed_edges") {
		t.Fatal("empty failed-edge set should be omitted")
	}

	// A v1 document (version field 1, no failed_edges) still decodes.
	v1 := strings.Replace(clean.String(), fmt.Sprintf(`"version": %d`, snapshotVersion), `"version": 1`, 1)
	if v1 == clean.String() {
		t.Fatal("version field not found for v1 rewrite")
	}
	old, err := DecodeSnapshot(strings.NewReader(v1))
	if err != nil {
		t.Fatalf("v1 decode: %v", err)
	}
	if len(old.FailedEdges) != 0 {
		t.Fatalf("v1 snapshot has failed edges: %v", old.FailedEdges)
	}

	// Bad failed-edge sets are rejected.
	for i, bad := range [][]int{{-1}, {g.NumEdges()}, {1, 1}} {
		var b bytes.Buffer
		if err := EncodeSnapshot(&b, &Snapshot{Router: "spf", R: 2, Seed: 3,
			Graph: g, System: ps, FailedEdges: bad}); err == nil {
			t.Fatalf("case %d: encode accepted bad failed edges %v", i, bad)
		}
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	doc["failed_edges"] = []int{99}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot(bytes.NewReader(raw)); err == nil {
		t.Fatal("decode accepted out-of-range failed edge")
	}
}

// TestSnapshotCapacityOverridesRoundTrip covers the v3 additions: fractional
// capacity overrides survive the round trip sorted by edge, stay disjoint
// from the failed set, an empty override map omits the key, and malformed
// override sets are rejected on both encode and decode.
func TestSnapshotCapacityOverridesRoundTrip(t *testing.T) {
	g := gen.Hypercube(3)
	router := oblivious.NewSPF(g)
	ps, err := core.RSample(router, core.AllPairs(g.NumVertices()), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{Router: "spf", R: 2, Seed: 3, Graph: g, System: ps,
		FailedEdges: []int{2},
		Capacities:  map[int]float64{5: 0.5, 1: 0.25}}

	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Capacities) != 2 || got.Capacities[1] != 0.25 || got.Capacities[5] != 0.5 {
		t.Fatalf("capacities %v, want {1:0.25 5:0.5}", got.Capacities)
	}
	if len(got.FailedEdges) != 1 || got.FailedEdges[0] != 2 {
		t.Fatalf("failed edges %v, want [2]", got.FailedEdges)
	}
	if PathSystemHash(got.System) != PathSystemHash(ps) {
		t.Fatal("hash not invariant with overrides present")
	}
	// Overrides appear on the wire sorted by edge, and re-encoding the decoded
	// snapshot is byte-identical (canonical fixpoint).
	if i, j := strings.Index(buf.String(), `"edge": 1`), strings.Index(buf.String(), `"edge": 5`); i < 0 || j < 0 || i > j {
		t.Fatalf("degraded edges not sorted on the wire (offsets %d, %d)", i, j)
	}
	var buf2 bytes.Buffer
	if err := EncodeSnapshot(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-encode with overrides not canonical")
	}

	// No overrides: the key is omitted.
	var clean bytes.Buffer
	if err := EncodeSnapshot(&clean, &Snapshot{Router: "spf", R: 2, Seed: 3, Graph: g, System: ps}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(clean.String(), "degraded_edges") {
		t.Fatal("empty override map should be omitted")
	}

	// Encode rejects out-of-range multipliers, unknown edges, and overlap with
	// the failed set — zero-capacity edges belong in FailedEdges.
	for i, bad := range []*Snapshot{
		{Router: "spf", R: 2, Seed: 3, Graph: g, System: ps, Capacities: map[int]float64{0: 0}},
		{Router: "spf", R: 2, Seed: 3, Graph: g, System: ps, Capacities: map[int]float64{0: 1}},
		{Router: "spf", R: 2, Seed: 3, Graph: g, System: ps, Capacities: map[int]float64{0: -0.5}},
		{Router: "spf", R: 2, Seed: 3, Graph: g, System: ps, Capacities: map[int]float64{99: 0.5}},
		{Router: "spf", R: 2, Seed: 3, Graph: g, System: ps,
			FailedEdges: []int{0}, Capacities: map[int]float64{0: 0.5}},
	} {
		var b bytes.Buffer
		if err := EncodeSnapshot(&b, bad); err == nil {
			t.Fatalf("case %d: encode accepted bad overrides %v", i, bad.Capacities)
		}
	}

	// Decode rejects the same classes plus duplicate entries.
	var doc map[string]any
	if err := json.Unmarshal(clean.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for i, bad := range []any{
		[]map[string]any{{"edge": 0, "capacity": 1.5}},
		[]map[string]any{{"edge": 99, "capacity": 0.5}},
		[]map[string]any{{"edge": 0, "capacity": 0.5}, {"edge": 0, "capacity": 0.25}},
	} {
		doc["degraded_edges"] = bad
		raw, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeSnapshot(bytes.NewReader(raw)); err == nil {
			t.Fatalf("case %d: decode accepted bad overrides %v", i, bad)
		}
	}
	doc["degraded_edges"] = []map[string]any{{"edge": 0, "capacity": 0.5}}
	doc["failed_edges"] = []int{0}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot(bytes.NewReader(raw)); err == nil {
		t.Fatal("decode accepted an edge both failed and degraded")
	}
}

// TestSnapshotCrossVersionDecode pins backward compatibility: documents in
// older wire formats decode under the current decoder with the link state
// each version could express — no failures/overrides for v1, failures only
// for v2 — and to the startup sample. A v4 writer stored the installed
// system, so a v4 document with link state is cut back to R paths per pair; a
// healthy v4 document and a v5 one decode unchanged.
func TestSnapshotCrossVersionDecode(t *testing.T) {
	g := gen.Hypercube(3)
	router := oblivious.NewSPF(g)
	pairs := core.AllPairs(g.NumVertices())
	ps, err := core.RSample(router, pairs, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	// installed is ps with one more path per pair appended, as a recovery
	// pass appends after the startup sample.
	extra, err := core.RSample(router, pairs, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	installed := ps.Clone()
	if err := installed.Merge(extra); err != nil {
		t.Fatal(err)
	}
	want, wantInstalled := PathSystemHash(ps), PathSystemHash(installed)
	degraded := []edgeCapacityJSON{{Edge: 7, Capacity: 0.5}}
	for _, tc := range []struct {
		name     string
		version  int
		system   *core.PathSystem
		failed   []int
		degraded []edgeCapacityJSON
		wantHash uint64
	}{
		{"v1", 1, ps, nil, nil, want},
		{"v2", 2, ps, []int{4}, nil, want},
		{"v4-degraded", 4, installed, []int{4}, degraded, want},
		{"v4-healthy", 4, installed, nil, nil, wantInstalled},
		{"v5-degraded", 5, installed, []int{4}, degraded, wantInstalled},
	} {
		raw, err := json.Marshal(snapshotJSON{Version: tc.version, Router: "spf", R: 2, Seed: 3,
			Graph: graphToJSON(g), System: pathSystemToJSON(tc.system), Failed: tc.failed, Degraded: tc.degraded})
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeSnapshot(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s decode: %v", tc.name, err)
		}
		if h := PathSystemHash(got.System); h != tc.wantHash {
			t.Errorf("%s decode: system hash %016x, want %016x", tc.name, h, tc.wantHash)
		}
		sameCaps := len(got.Capacities) == len(tc.degraded)
		for _, c := range tc.degraded {
			if got.Capacities[c.Edge] != c.Capacity {
				sameCaps = false
			}
		}
		if !slices.Equal(got.FailedEdges, tc.failed) || !sameCaps {
			t.Errorf("%s decode: failed=%v caps=%v, want failed=%v degraded=%v",
				tc.name, got.FailedEdges, got.Capacities, tc.failed, tc.degraded)
		}
	}

	// The full current-version document round-trips all of it.
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, &Snapshot{Router: "spf", R: 2, Seed: 3, Graph: g, System: ps,
		FailedEdges: []int{4}, Capacities: map[int]float64{7: 0.5}}); err != nil {
		t.Fatal(err)
	}
	cur, err := DecodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if PathSystemHash(cur.System) != want || len(cur.FailedEdges) != 1 || cur.Capacities[7] != 0.5 {
		t.Fatalf("current decode state: failed=%v caps=%v", cur.FailedEdges, cur.Capacities)
	}
}

// TestSnapshotWALWatermarkRoundTrip covers the v4 additions: the WAL
// sequence watermark and link-state version survive the round trip, are
// omitted from the document when zero, and decode to zero from pre-v4
// documents that never carried them.
func TestSnapshotWALWatermarkRoundTrip(t *testing.T) {
	g := gen.Hypercube(3)
	router := oblivious.NewSPF(g)
	ps, err := core.RSample(router, core.AllPairs(g.NumVertices()), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, &Snapshot{Router: "spf", R: 2, Seed: 3, Graph: g, System: ps,
		WALSeq: 42, LinkVersion: 7}); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.WALSeq != 42 || got.LinkVersion != 7 {
		t.Fatalf("decoded WALSeq=%d LinkVersion=%d, want 42/7", got.WALSeq, got.LinkVersion)
	}

	// Zero watermark omits both keys (canonical form, and what pre-v4
	// writers produced).
	var clean bytes.Buffer
	if err := EncodeSnapshot(&clean, &Snapshot{Router: "spf", R: 2, Seed: 3, Graph: g, System: ps}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(clean.String(), "wal_seq") || strings.Contains(clean.String(), "link_version") {
		t.Fatal("zero WAL watermark should be omitted from the document")
	}
	old, err := DecodeSnapshot(strings.NewReader(
		strings.Replace(clean.String(), fmt.Sprintf(`"version": %d`, snapshotVersion), `"version": 3`, 1)))
	if err != nil {
		t.Fatalf("v3 decode: %v", err)
	}
	if old.WALSeq != 0 || old.LinkVersion != 0 {
		t.Fatalf("pre-v4 snapshot decoded WALSeq=%d LinkVersion=%d, want 0/0", old.WALSeq, old.LinkVersion)
	}
}
