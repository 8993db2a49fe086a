package frt

import (
	"math"
	"math/rand/v2"
	"testing"

	"sparseroute/internal/graph"
	"sparseroute/internal/graph/gen"
)

func unit(g *graph.Graph) []float64 {
	l := make([]float64, g.NumEdges())
	for i := range l {
		l[i] = 1
	}
	return l
}

func TestBuildValidates(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, g := range []*graph.Graph{gen.Ring(8), gen.Hypercube(4), gen.Grid(4, 5)} {
		tree, err := Build(g, unit(g), rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	g := gen.Ring(4)
	if _, err := Build(g, []float64{1}, rng); err == nil {
		t.Fatal("wrong length count should error")
	}
	bad := unit(g)
	bad[0] = 0
	if _, err := Build(g, bad, rng); err == nil {
		t.Fatal("zero length should error")
	}
	disc := graph.New(3)
	disc.AddUnitEdge(0, 1)
	if _, err := Build(disc, unit(disc), rng); err == nil {
		t.Fatal("disconnected graph should error")
	}
}

func TestRouteProducesValidSimplePaths(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	g := gen.Hypercube(4)
	tree, err := Build(g, unit(g), rng)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.NumVertices(); u++ {
		for v := u + 1; v < g.NumVertices(); v += 3 {
			p, err := tree.Route(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if p.Src != u || p.Dst != v {
				t.Fatalf("endpoints wrong: %+v", p)
			}
			if !p.IsSimple(g) {
				t.Fatalf("tree route not simple: %v -> %v", u, v)
			}
		}
	}
}

func TestRouteSelf(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	g := gen.Ring(5)
	tree, err := Build(g, unit(g), rng)
	if err != nil {
		t.Fatal(err)
	}
	p, err := tree.Route(2, 2)
	if err != nil || p.Hops() != 0 {
		t.Fatalf("self route: %+v err=%v", p, err)
	}
}

func TestTreeDistanceDominatesGraphDistance(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	g := gen.Grid(5, 5)
	tree, err := Build(g, unit(g), rng)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.NumVertices(); u += 3 {
		dist, _ := g.BFS(u)
		for v := 0; v < g.NumVertices(); v += 4 {
			td := tree.treeDistance(u, v)
			if td < float64(dist[v])-1e-9 {
				t.Fatalf("tree distance %v below graph distance %d for (%d,%d)", td, dist[v], u, v)
			}
		}
	}
}

func TestExpectedStretchIsModest(t *testing.T) {
	// FRT guarantees O(log n) expected stretch; averaged over trees and
	// pairs the observed stretch on a 5x5 grid should be far below n.
	g := gen.Grid(5, 5)
	rng := rand.New(rand.NewPCG(11, 12))
	var totalStretch float64
	var count int
	for trial := 0; trial < 10; trial++ {
		tree, err := Build(g, unit(g), rng)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < g.NumVertices(); u += 2 {
			dist, _ := g.BFS(u)
			for v := 0; v < g.NumVertices(); v += 5 {
				if u == v {
					continue
				}
				totalStretch += tree.treeDistance(u, v) / float64(dist[v])
				count++
			}
		}
	}
	avg := totalStretch / float64(count)
	if avg > 40 {
		t.Fatalf("average tree stretch %v too large for a 25-vertex grid", avg)
	}
	if avg < 1 {
		t.Fatalf("average stretch %v below 1 (domination violated)", avg)
	}
}

func TestBoundaryCapacity(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	g := gen.Ring(6)
	tree, err := Build(g, unit(g), rng)
	if err != nil {
		t.Fatal(err)
	}
	// Root boundary is zero (whole graph).
	if bc := tree.BoundaryCapacity(0); bc != 0 {
		t.Fatalf("root boundary=%v, want 0", bc)
	}
	// A leaf's boundary equals its vertex degree (unit capacities).
	leaf := tree.LeafOf[3]
	if bc := tree.BoundaryCapacity(leaf); bc != 2 {
		t.Fatalf("leaf boundary=%v, want 2", bc)
	}
}

func TestRouteRespectsLengths(t *testing.T) {
	// With a heavily weighted edge, tree routes should tend to avoid it:
	// at minimum, routes remain valid; statistically the heavy edge should
	// carry fewer routes than in the unit-length tree.
	g := gen.Ring(8)
	heavy := unit(g)
	heavy[0] = 100
	rng := rand.New(rand.NewPCG(15, 16))
	heavyUse, unitUse := 0, 0
	for trial := 0; trial < 8; trial++ {
		th, err := Build(g, heavy, rng)
		if err != nil {
			t.Fatal(err)
		}
		tu, err := Build(g, unit(g), rng)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < 8; u++ {
			for v := u + 1; v < 8; v++ {
				ph, err := th.Route(u, v)
				if err != nil {
					t.Fatal(err)
				}
				pu, err := tu.Route(u, v)
				if err != nil {
					t.Fatal(err)
				}
				for _, id := range ph.EdgeIDs {
					if id == 0 {
						heavyUse++
					}
				}
				for _, id := range pu.EdgeIDs {
					if id == 0 {
						unitUse++
					}
				}
			}
		}
	}
	if heavyUse > unitUse {
		t.Fatalf("heavy edge used more often (%d) than under unit lengths (%d)", heavyUse, unitUse)
	}
}

// TestBuildCopiesLengths overwrites the caller's lengths slice after Build
// and checks that Route, whose center-to-center paths are mapped lazily,
// still routes every pair under the lengths the tree was built with
// (oblivious.NewRaecke reuses one slice across all its trees).
func TestBuildCopiesLengths(t *testing.T) {
	g := gen.Grid(6, 6)
	lengths := make([]float64, g.NumEdges())
	rng := rand.New(rand.NewPCG(19, 20))
	for i := range lengths {
		lengths[i] = 1 + rng.Float64()
	}
	want, err := Build(g, append([]float64(nil), lengths...), rand.New(rand.NewPCG(21, 22)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Build(g, lengths, rand.New(rand.NewPCG(21, 22)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range lengths {
		lengths[i] = 1 / lengths[i]
	}
	n := g.NumVertices()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			pw, err := want.Route(u, v)
			if err != nil {
				t.Fatal(err)
			}
			pg, err := got.Route(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if pw.Key() != pg.Key() {
				t.Fatalf("Route(%d,%d) after overwriting lengths: %v, want %v", u, v, pg.EdgeIDs, pw.EdgeIDs)
			}
		}
	}
}

func TestTreeDistanceSymmetric(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 18))
	g := gen.Hypercube(3)
	tree, err := Build(g, unit(g), rng)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 8; u++ {
		for v := 0; v < 8; v++ {
			if math.Abs(tree.treeDistance(u, v)-tree.treeDistance(v, u)) > 1e-12 {
				t.Fatalf("tree distance asymmetric for (%d,%d)", u, v)
			}
		}
	}
}
