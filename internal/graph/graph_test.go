package graph

import (
	"testing"
)

func line(t *testing.T, n int) *Graph {
	t.Helper()
	g := New(n)
	for v := 0; v+1 < n; v++ {
		g.AddUnitEdge(v, v+1)
	}
	return g
}

func TestAddEdgeAndAccessors(t *testing.T) {
	g := New(3)
	id0 := g.AddEdge(0, 1, 2.5)
	id1 := g.AddUnitEdge(1, 2)
	if id0 != 0 || id1 != 1 {
		t.Fatalf("edge IDs not dense: got %d, %d", id0, id1)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("wrong counts: n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	e := g.Edge(0)
	if e.U != 0 || e.V != 1 || e.Capacity != 2.5 {
		t.Fatalf("edge 0 mismatch: %+v", e)
	}
	if got := e.Other(0); got != 1 {
		t.Fatalf("Other(0) = %d, want 1", got)
	}
	if got := e.Other(1); got != 0 {
		t.Fatalf("Other(1) = %d, want 0", got)
	}
	if g.TotalCapacity() != 3.5 {
		t.Fatalf("TotalCapacity = %v, want 3.5", g.TotalCapacity())
	}
	if g.CapacityDegree(1) != 3.5 {
		t.Fatalf("CapacityDegree(1) = %v, want 3.5", g.CapacityDegree(1))
	}
}

func TestOtherPanicsOnNonEndpoint(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e := Edge{ID: 0, U: 0, V: 1}
	e.Other(2)
}

func TestAddEdgeValidation(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"self-loop", func() { New(2).AddUnitEdge(1, 1) }},
		{"out of range", func() { New(2).AddUnitEdge(0, 5) }},
		{"negative vertex", func() { New(2).AddUnitEdge(-1, 0) }},
		{"zero capacity", func() { New(2).AddEdge(0, 1, 0) }},
		{"negative n", func() { New(-1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestParallelEdges(t *testing.T) {
	g := New(2)
	g.AddUnitEdge(0, 1)
	g.AddUnitEdge(0, 1)
	if g.NumEdges() != 2 {
		t.Fatalf("parallel edges should be distinct: m=%d", g.NumEdges())
	}
	if d := g.Degree(0); d != 2 {
		t.Fatalf("Degree(0)=%d, want 2", d)
	}
	if nb := g.neighbors(0); len(nb) != 1 || nb[0] != 1 {
		t.Fatalf("neighbors(0)=%v, want [1]", nb)
	}
}

func TestFindEdge(t *testing.T) {
	g := line(t, 4)
	if id := g.FindEdge(1, 2); id != 1 {
		t.Fatalf("FindEdge(1,2)=%d, want 1", id)
	}
	if id := g.FindEdge(2, 1); id != 1 {
		t.Fatalf("FindEdge symmetric lookup failed: %d", id)
	}
	if id := g.FindEdge(0, 3); id != -1 {
		t.Fatalf("FindEdge(0,3)=%d, want -1", id)
	}
	if id := g.FindEdge(-1, 7); id != -1 {
		t.Fatalf("FindEdge out of range = %d, want -1", id)
	}
}

func TestConnected(t *testing.T) {
	if !New(0).Connected() || !New(1).Connected() {
		t.Fatal("trivial graphs should be connected")
	}
	if New(2).Connected() {
		t.Fatal("two isolated vertices are not connected")
	}
	if !line(t, 5).Connected() {
		t.Fatal("path graph should be connected")
	}
	g := line(t, 5)
	h := New(6)
	for _, e := range g.Edges() {
		h.AddEdge(e.U, e.V, e.Capacity)
	}
	if h.Connected() {
		t.Fatal("graph with isolated vertex 5 should not be connected")
	}
}

func TestClone(t *testing.T) {
	g := line(t, 3)
	h := g.Clone()
	h.AddUnitEdge(0, 2)
	if g.NumEdges() != 2 {
		t.Fatalf("clone mutated original: m=%d", g.NumEdges())
	}
	if h.NumEdges() != 3 {
		t.Fatalf("clone missing edge: m=%d", h.NumEdges())
	}
}

func TestRemoveEdges(t *testing.T) {
	g := line(t, 4)
	g.AddUnitEdge(0, 3) // edge 3
	h, idMap := RemoveEdges(g, map[int]bool{1: true})
	if h.NumEdges() != 3 {
		t.Fatalf("m=%d, want 3", h.NumEdges())
	}
	if idMap[1] != -1 {
		t.Fatalf("removed edge should map to -1, got %d", idMap[1])
	}
	for old, nw := range idMap {
		if nw < 0 {
			continue
		}
		a, b := g.Edge(old), h.Edge(nw)
		if a.U != b.U || a.V != b.V || a.Capacity != b.Capacity {
			t.Fatalf("edge %d mapping broken", old)
		}
	}
	// Removing the middle edge disconnects {0,1,3(via chord? 0-3 chord keeps 3)}:
	// vertices 2 is now reachable only via edge 2 (2-3).
	if !h.Connected() {
		t.Fatal("graph with chord should stay connected")
	}
	h2, _ := RemoveEdges(g, map[int]bool{2: true, 3: true})
	if h2.Connected() {
		t.Fatal("removing both routes to 3 should disconnect")
	}
}

func TestScaleCapacities(t *testing.T) {
	g := line(t, 4)
	g.AddEdge(0, 3, 2.5) // edge 3
	h := ScaleCapacities(g, map[int]float64{1: 0.5, 3: 0.2})
	if h.NumVertices() != g.NumVertices() || h.NumEdges() != g.NumEdges() {
		t.Fatalf("shape changed: %dx%d vs %dx%d",
			h.NumVertices(), h.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	for id := 0; id < g.NumEdges(); id++ {
		a, b := g.Edge(id), h.Edge(id)
		if a.U != b.U || a.V != b.V || a.ID != b.ID {
			t.Fatalf("edge %d identity changed: %+v vs %+v", id, a, b)
		}
	}
	if c := h.Edge(1).Capacity; c != 0.5 {
		t.Fatalf("edge 1 capacity %v, want 0.5", c)
	}
	if c := h.Edge(3).Capacity; c != 0.5 {
		t.Fatalf("edge 3 capacity %v, want 2.5*0.2", c)
	}
	if c := h.Edge(0).Capacity; c != 1 {
		t.Fatalf("unlisted edge 0 capacity %v, want untouched", c)
	}
	// The original is untouched.
	if g.Edge(1).Capacity != 1 || g.Edge(3).Capacity != 2.5 {
		t.Fatal("ScaleCapacities mutated the original graph")
	}
	// Non-positive multipliers are a programming error, not a failure mode.
	defer func() {
		if recover() == nil {
			t.Fatal("zero multiplier should panic (use RemoveEdges for failures)")
		}
	}()
	ScaleCapacities(g, map[int]float64{0: 0})
}

func TestPathVerticesAndValidate(t *testing.T) {
	g := line(t, 4)
	p := Path{Src: 0, Dst: 3, EdgeIDs: []int{0, 1, 2}}
	vs, err := p.Vertices(g)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3}
	for i, v := range want {
		if vs[i] != v {
			t.Fatalf("vertex sequence %v, want %v", vs, want)
		}
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	bad := Path{Src: 0, Dst: 3, EdgeIDs: []int{0, 2}}
	if bad.Validate(g) == nil {
		t.Fatal("disconnected walk should fail validation")
	}
	wrongDst := Path{Src: 0, Dst: 2, EdgeIDs: []int{0, 1, 2}}
	if wrongDst.Validate(g) == nil {
		t.Fatal("path ending at wrong vertex should fail validation")
	}
	unknown := Path{Src: 0, Dst: 1, EdgeIDs: []int{99}}
	if unknown.Validate(g) == nil {
		t.Fatal("unknown edge should fail validation")
	}
}

func TestEmptyPath(t *testing.T) {
	g := line(t, 2)
	p := Path{Src: 1, Dst: 1}
	if err := p.Validate(g); err != nil {
		t.Fatalf("empty path at a single vertex should be valid: %v", err)
	}
	if p.Hops() != 0 {
		t.Fatalf("Hops=%d, want 0", p.Hops())
	}
}

func TestIsSimple(t *testing.T) {
	g := New(3)
	e01 := g.AddUnitEdge(0, 1)
	e12 := g.AddUnitEdge(1, 2)
	simple := Path{Src: 0, Dst: 2, EdgeIDs: []int{e01, e12}}
	if !simple.IsSimple(g) {
		t.Fatal("straight path should be simple")
	}
	backtrack := Path{Src: 0, Dst: 1, EdgeIDs: []int{e01, e12, e12}}
	if backtrack.IsSimple(g) {
		t.Fatal("backtracking walk should not be simple")
	}
}

func TestReverse(t *testing.T) {
	g := line(t, 4)
	p := Path{Src: 0, Dst: 3, EdgeIDs: []int{0, 1, 2}}
	r := p.Reverse()
	if r.Src != 3 || r.Dst != 0 {
		t.Fatalf("reverse endpoints wrong: %+v", r)
	}
	if err := r.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestPathKeyDirectionIndependent(t *testing.T) {
	p := Path{Src: 0, Dst: 3, EdgeIDs: []int{0, 1, 2}}
	if p.Key() != p.Reverse().Key() {
		t.Fatalf("Key should be direction independent: %q vs %q", p.Key(), p.Reverse().Key())
	}
	q := Path{Src: 0, Dst: 2, EdgeIDs: []int{0, 1}}
	if p.Key() == q.Key() {
		t.Fatal("different paths should have different keys")
	}
}

func TestConcat(t *testing.T) {
	g := line(t, 4)
	p := Path{Src: 0, Dst: 2, EdgeIDs: []int{0, 1}}
	q := Path{Src: 2, Dst: 3, EdgeIDs: []int{2}}
	joined, err := Concat(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := joined.Validate(g); err != nil {
		t.Fatal(err)
	}
	if joined.Hops() != 3 {
		t.Fatalf("Hops=%d, want 3", joined.Hops())
	}
	if _, err := Concat(q, p); err == nil {
		t.Fatal("mismatched concat should error")
	}
}

func TestSimplifyRemovesLoops(t *testing.T) {
	g := New(4)
	e01 := g.AddUnitEdge(0, 1)
	e12 := g.AddUnitEdge(1, 2)
	e23 := g.AddUnitEdge(2, 3)
	// 0 -> 1 -> 2 -> 1 -> 2 -> 3: contains a loop at 1..2.
	walk := Path{Src: 0, Dst: 3, EdgeIDs: []int{e01, e12, e12, e12, e23}}
	sp, err := Simplify(g, walk)
	if err != nil {
		t.Fatal(err)
	}
	if !sp.IsSimple(g) {
		t.Fatalf("simplified path not simple: %+v", sp)
	}
	if sp.Hops() != 3 {
		t.Fatalf("simplified hops=%d, want 3", sp.Hops())
	}
}

func TestSimplifyIdentityOnSimplePath(t *testing.T) {
	g := line(t, 5)
	p := Path{Src: 0, Dst: 4, EdgeIDs: []int{0, 1, 2, 3}}
	sp, err := Simplify(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Hops() != p.Hops() {
		t.Fatalf("simplify changed a simple path: %d -> %d hops", p.Hops(), sp.Hops())
	}
}

func TestSimplifyRoundTripWalk(t *testing.T) {
	g := line(t, 3)
	// 0 -> 1 -> 0: a src==dst walk should simplify to the empty path.
	walk := Path{Src: 0, Dst: 0, EdgeIDs: []int{0, 0}}
	sp, err := Simplify(g, walk)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Hops() != 0 {
		t.Fatalf("round-trip walk should simplify to empty, got %d hops", sp.Hops())
	}
}

func TestPathFromVertices(t *testing.T) {
	g := line(t, 4)
	p, err := PathFromVertices(g, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	if _, err := PathFromVertices(g, []int{0, 2}); err == nil {
		t.Fatal("non-adjacent vertices should error")
	}
	if _, err := PathFromVertices(g, nil); err == nil {
		t.Fatal("empty sequence should error")
	}
}
