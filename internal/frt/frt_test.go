package frt

import (
	"math"
	"math/rand/v2"
	"slices"
	"sync"
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
	if bc := tree.BoundaryCapacities()[0]; bc != 0 {
		t.Fatalf("root boundary=%v, want 0", bc)
	}
	// A leaf's boundary equals its vertex degree (unit capacities).
	leaf := tree.LeafOf[3]
	if bc := tree.BoundaryCapacities()[leaf]; bc != 2 {
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
// and checks that Route, whose center-to-center paths are read lazily from
// Build's parent edges, still routes every pair under the lengths the tree
// was built with (oblivious.NewRaecke reuses one slice across all its
// trees).
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

// randomLengths returns lengths in [0.1, 10) for g's edges.
func randomLengths(g *graph.Graph, rng *rand.Rand) []float64 {
	l := make([]float64, g.NumEdges())
	for i := range l {
		l[i] = 0.1 + 9.9*rng.Float64()
	}
	return l
}

// TestParentPathsUseTheNormalizedMetric pins the one-metric rule: every
// charged tree edge (a non-root node with a nonzero boundary) maps to a
// simple path whose normalized length, folded left to right, is bit for bit
// the distance Build partitioned by, so the center paths and the partition
// come from one shortest-path pass under one metric.
func TestParentPathsUseTheNormalizedMetric(t *testing.T) {
	rng := rand.New(rand.NewPCG(55, 3))
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid-6x6", gen.Grid(6, 6)},
		{"wan48", gen.SyntheticWAN(48, 30, rand.New(rand.NewPCG(48, 48)))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lengths := randomLengths(tc.g, rng)
			minLen := slices.Min(lengths)
			norm := make([]float64, len(lengths))
			for i, l := range lengths {
				norm[i] = l / minLen
			}
			tree, err := Build(tc.g, lengths, rng)
			if err != nil {
				t.Fatal(err)
			}
			boundary := tree.BoundaryCapacities()
			charged := 0
			for idx, nd := range tree.Nodes {
				if nd.Parent < 0 || boundary[idx] == 0 {
					continue
				}
				p, err := tree.ParentPath(idx)
				if err != nil {
					t.Fatal(err)
				}
				if !p.IsSimple(tc.g) {
					t.Fatalf("node %d: parent path %v is not simple", idx, p.EdgeIDs)
				}
				var folded float64
				for _, id := range p.EdgeIDs {
					folded += norm[id]
				}
				dist, _ := tc.g.Dijkstra(p.Src, norm)
				if math.Float64bits(folded) != math.Float64bits(dist[p.Dst]) {
					t.Fatalf("node %d: parent path %d->%d has normalized length %v, Build's distance %v",
						idx, p.Src, p.Dst, folded, dist[p.Dst])
				}
				if p.Src != p.Dst {
					charged++
				}
			}
			if charged == 0 {
				t.Fatal("no charged tree edge with a nonempty path")
			}
		})
	}
}

// TestConcurrentRouteMatchesSequential routes every pair of a fresh tree
// from 4 goroutines at once, racing to fill the shared path cache, and
// checks each path against a sequential pass over a twin tree.
func TestConcurrentRouteMatchesSequential(t *testing.T) {
	g := gen.SyntheticWAN(40, 25, rand.New(rand.NewPCG(40, 40)))
	lengths := randomLengths(g, rand.New(rand.NewPCG(55, 4)))
	seq, err := Build(g, lengths, rand.New(rand.NewPCG(55, 5)))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Build(g, lengths, rand.New(rand.NewPCG(55, 5)))
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	want := make([]graph.Path, n*n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if want[u*n+v], err = seq.Route(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	const workers = 4
	got := make([][]graph.Path, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]graph.Path, n*n)
			// Each worker starts at a different pair so the cache fills
			// from several places at once.
			for k := 0; k < n*n; k++ {
				i := (k + w*n*n/workers) % (n * n)
				p, err := fresh.Route(i/n, i%n)
				if err != nil {
					t.Error(err)
					return
				}
				got[w][i] = p
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for i, p := range got[w] {
			if p.Src != want[i].Src || p.Dst != want[i].Dst || !slices.Equal(p.EdgeIDs, want[i].EdgeIDs) {
				t.Fatalf("worker %d, pair (%d,%d): %v, sequential %v", w, i/n, i%n, p.EdgeIDs, want[i].EdgeIDs)
			}
		}
	}
}

// TestBoundaryCapacitiesMatchMembership checks the chain-walking boundary
// sums bit for bit against the membership definition: each node sums, in
// Edges() order, the capacities of the edges with one endpoint inside it.
func TestBoundaryCapacitiesMatchMembership(t *testing.T) {
	rng := rand.New(rand.NewPCG(55, 6))
	g := gen.SyntheticWAN(48, 30, rand.New(rand.NewPCG(48, 48)))
	capped := graph.New(g.NumVertices())
	for _, e := range g.Edges() {
		capped.AddEdge(e.U, e.V, 0.1+rng.Float64())
	}
	for _, gg := range []*graph.Graph{capped, gen.Grid(6, 6)} {
		tree, err := Build(gg, randomLengths(gg, rng), rng)
		if err != nil {
			t.Fatal(err)
		}
		got := tree.BoundaryCapacities()
		for idx, nd := range tree.Nodes {
			inside := make([]bool, gg.NumVertices())
			for _, v := range nd.Members {
				inside[v] = true
			}
			var want float64
			for _, e := range gg.Edges() {
				if inside[e.U] != inside[e.V] {
					want += e.Capacity
				}
			}
			if math.Float64bits(got[idx]) != math.Float64bits(want) {
				t.Fatalf("node %d: boundary %v, membership sum %v", idx, got[idx], want)
			}
		}
	}
}
