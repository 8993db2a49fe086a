package maxflow

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"sparseroute/internal/graph"
	"sparseroute/internal/graph/gen"
)

func TestMaxFlowLine(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 3)
	if f := Lambda(g, 0, 2); f != 3 {
		t.Fatalf("flow=%v, want 3 (bottleneck)", f)
	}
}

func TestMaxFlowParallelEdges(t *testing.T) {
	g := graph.New(2)
	g.AddUnitEdge(0, 1)
	g.AddUnitEdge(0, 1)
	g.AddEdge(0, 1, 2.5)
	if f := Lambda(g, 0, 1); f != 4.5 {
		t.Fatalf("flow=%v, want 4.5", f)
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	g := graph.New(3)
	g.AddUnitEdge(0, 1)
	if f := Lambda(g, 0, 2); f != 0 {
		t.Fatalf("flow=%v, want 0", f)
	}
}

func TestMaxFlowSameVertex(t *testing.T) {
	g := graph.New(2)
	g.AddUnitEdge(0, 1)
	if f := Lambda(g, 1, 1); !math.IsInf(f, 1) {
		t.Fatalf("lambda(v,v)=%v, want +Inf", f)
	}
}

func TestMaxFlowDiamond(t *testing.T) {
	// Two vertex-disjoint 2-hop paths: flow 2.
	g := graph.New(4)
	g.AddUnitEdge(0, 1)
	g.AddUnitEdge(1, 3)
	g.AddUnitEdge(0, 2)
	g.AddUnitEdge(2, 3)
	if f := Lambda(g, 0, 3); f != 2 {
		t.Fatalf("flow=%v, want 2", f)
	}
}

func TestMaxFlowUndirectedBackAndForth(t *testing.T) {
	// Undirected flow must be able to use an edge in either direction:
	// classic 4-cycle plus chord.
	g := graph.New(4)
	g.AddUnitEdge(0, 1)
	g.AddUnitEdge(1, 2)
	g.AddUnitEdge(2, 3)
	g.AddUnitEdge(3, 0)
	if f := Lambda(g, 0, 2); f != 2 {
		t.Fatalf("cycle flow=%v, want 2", f)
	}
}

func TestHypercubeLambdaEqualsDegree(t *testing.T) {
	// In the d-cube, the min cut between any two vertices is d (it is
	// d-regular and d-connected).
	for d := 2; d <= 4; d++ {
		g := gen.Hypercube(d)
		if f := Lambda(g, 0, (1<<d)-1); f != float64(d) {
			t.Fatalf("d=%d: lambda=%v, want %d", d, f, d)
		}
		if f := Lambda(g, 0, 1); f != float64(d) {
			t.Fatalf("d=%d adjacent: lambda=%v, want %d", d, f, d)
		}
	}
}

func TestDoubleStarLambda(t *testing.T) {
	ds := gen.NewDoubleStar(3, 5)
	// Leaf to leaf across the gadget: bottleneck is the leaf edge (1),
	// center to center: the k middle vertices (3).
	if f := Lambda(ds.G, ds.LeftLeaves[0], ds.RightLeaves[0]); f != 1 {
		t.Fatalf("leaf-leaf lambda=%v, want 1", f)
	}
	if f := Lambda(ds.G, ds.LeftCenter, ds.RightCenter); f != 3 {
		t.Fatalf("center-center lambda=%v, want 3", f)
	}
}

func TestMinCutEdges(t *testing.T) {
	g := gen.TwoCliques(4, 2)
	val, edges := newNetwork(g).minCut(0, 7)
	if val != 2 {
		t.Fatalf("cut value=%v, want 2", val)
	}
	if len(edges) != 2 {
		t.Fatalf("cut edges=%d, want 2", len(edges))
	}
	for _, id := range edges {
		e := g.Edge(id)
		if (e.U < 4) == (e.V < 4) {
			t.Fatalf("cut edge (%d,%d) is not a bridge", e.U, e.V)
		}
	}
}

func TestMaxFlowDoesNotMutate(t *testing.T) {
	g := gen.Hypercube(3)
	nw := newNetwork(g)
	f1 := nw.maxFlow(0, 7)
	f2 := nw.maxFlow(0, 7)
	if f1 != f2 {
		t.Fatalf("repeated calls disagree: %v vs %v", f1, f2)
	}
}

// Property: max flow = min cut, and flow is symmetric in s,t for undirected
// graphs.
func TestMaxFlowMinCutProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 1))
		n := 8 + int(seed%8)
		g := graph.New(n)
		for i := 1; i < n; i++ {
			g.AddEdge(i, r.IntN(i), float64(1+r.IntN(3)))
		}
		for extra := 0; extra < n; extra++ {
			u, v := r.IntN(n), r.IntN(n)
			if u != v {
				g.AddEdge(u, v, float64(1+r.IntN(3)))
			}
		}
		s, t2 := rng.IntN(n), rng.IntN(n)
		if s == t2 {
			t2 = (s + 1) % n
		}
		nw := newNetwork(g)
		flow := nw.maxFlow(s, t2)
		cutVal, cutEdges := nw.minCut(s, t2)
		if math.Abs(flow-cutVal) > 1e-9 {
			return false
		}
		// Cut edges capacity must sum to at least the flow (they form a cut).
		var cutCap float64
		for _, id := range cutEdges {
			cutCap += g.Edge(id).Capacity
		}
		if cutCap < flow-1e-9 {
			return false
		}
		// Symmetry.
		return math.Abs(nw.maxFlow(t2, s)-flow) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
