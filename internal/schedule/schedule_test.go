package schedule

import (
	"math/rand/v2"
	"testing"

	"sparseroute/internal/demand"
	"sparseroute/internal/flow"
	"sparseroute/internal/graph"
	"sparseroute/internal/graph/gen"
	"sparseroute/internal/oblivious"

	"sparseroute/internal/core"
)

func TestSimulateSinglePacket(t *testing.T) {
	g := gen.Ring(6)
	p, err := g.ShortestPathHops(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := flow.New()
	r.AddFlow(p, 1)
	res, err := simulate(g, r, 0, rand.New(rand.NewPCG(1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 3 {
		t.Fatalf("makespan=%d, want 3 (one packet, 3 hops, no contention)", res.Makespan)
	}
	if res.Dilation != 3 || res.Packets != 1 {
		t.Fatalf("res=%+v", res)
	}
	if res.LowerBound() != 3 {
		t.Fatalf("lower bound=%d", res.LowerBound())
	}
}

func TestSimulateContention(t *testing.T) {
	// Two packets sharing a single unit edge: makespan 2.
	g := graph.New(2)
	e := g.AddUnitEdge(0, 1)
	r := flow.New()
	r.AddFlow(graph.Path{Src: 0, Dst: 1, EdgeIDs: []int{e}}, 2)
	res, err := simulate(g, r, 0, rand.New(rand.NewPCG(2, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 2 {
		t.Fatalf("makespan=%d, want 2", res.Makespan)
	}
	if res.Congestion != 2 {
		t.Fatalf("congestion=%v", res.Congestion)
	}
}

func TestSimulateRespectsCapacity(t *testing.T) {
	// Capacity-2 edge moves both packets in one step.
	g := graph.New(2)
	e := g.AddEdge(0, 1, 2)
	r := flow.New()
	r.AddFlow(graph.Path{Src: 0, Dst: 1, EdgeIDs: []int{e}}, 2)
	res, err := simulate(g, r, 0, rand.New(rand.NewPCG(3, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 1 {
		t.Fatalf("makespan=%d, want 1", res.Makespan)
	}
}

func TestSimulateRejectsFractional(t *testing.T) {
	g := gen.Ring(4)
	r := flow.New()
	p, _ := g.ShortestPathHops(0, 1)
	r.AddFlow(p, 0.5)
	if _, err := simulate(g, r, 0, rand.New(rand.NewPCG(4, 4))); err == nil {
		t.Fatal("fractional routing should be rejected")
	}
}

func TestSimulateEmptyRouting(t *testing.T) {
	g := gen.Ring(4)
	res, err := simulate(g, flow.New(), 0, rand.New(rand.NewPCG(5, 5)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 0 || res.Packets != 0 {
		t.Fatalf("res=%+v", res)
	}
}

func TestMakespanWithinConstantOfLowerBound(t *testing.T) {
	// Integral semi-oblivious routing of a permutation on the 5-cube:
	// makespan must be >= max(C, D) and, for greedy-with-delays, within a
	// small multiple of C + D.
	dim := 5
	g := gen.Hypercube(dim)
	router, err := oblivious.NewValiant(g, dim)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(6, 6))
	d := demand.RandomPermutation(1<<dim, 12, rng)
	ps, err := core.RSample(router, d.Support(), 4, 13)
	if err != nil {
		t.Fatal(err)
	}
	routing, err := ps.AdaptIntegral(d, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateBest(g, routing, 4, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan < res.LowerBound() {
		t.Fatalf("makespan %d below lower bound %d", res.Makespan, res.LowerBound())
	}
	cPlusD := int(res.Congestion) + res.Dilation
	if res.Makespan > 5*cPlusD+10 {
		t.Fatalf("makespan %d far above C+D=%d", res.Makespan, cPlusD)
	}
}

func TestSimulateBestNotWorseThanWorstTrial(t *testing.T) {
	g := gen.Grid(3, 3)
	r := flow.New()
	p1, _ := g.ShortestPathHops(0, 8)
	r.AddFlow(p1, 3)
	rng := rand.New(rand.NewPCG(7, 7))
	single, err := simulate(g, r, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	best, err := SimulateBest(g, r, 3, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	if best.Makespan > single.Makespan+3 {
		t.Fatalf("best-of-8 (%d) should not be much worse than one draw (%d)", best.Makespan, single.Makespan)
	}
}

func TestPoliciesAllComplete(t *testing.T) {
	// Every policy must finish all packets within the step limit and
	// respect the trivial lower bound. On a contended hypercube instance
	// the three policies produce close but not necessarily equal makespans.
	dim := 4
	g := gen.Hypercube(dim)
	router, err := oblivious.NewValiant(g, dim)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(17, 17))
	d := demand.RandomPermutation(1<<dim, 8, rng)
	ps, err := core.RSample(router, d.Support(), 3, 44)
	if err != nil {
		t.Fatal(err)
	}
	routing, err := ps.AdaptIntegral(d, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	spans := map[policy]int{}
	for _, pol := range []policy{farthestFirst, longestRemaining, fifo} {
		res, err := simulateWithPolicy(g, routing, 0, pol, rand.New(rand.NewPCG(18, 18)))
		if err != nil {
			t.Fatalf("policy %d: %v", pol, err)
		}
		if res.Makespan < res.LowerBound() {
			t.Fatalf("policy %d: makespan %d below lower bound %d", pol, res.Makespan, res.LowerBound())
		}
		spans[pol] = res.Makespan
	}
	// Policies are all greedy: no one can be more than a small factor off
	// another on this instance.
	for a, sa := range spans {
		for b, sb := range spans {
			if sa > 3*sb+5 {
				t.Fatalf("policy %d makespan %d wildly above policy %d's %d", a, sa, b, sb)
			}
		}
	}
}

func TestZeroHopPacketsFinishImmediately(t *testing.T) {
	g := gen.Ring(4)
	r := flow.New()
	// Self-pair flows are not representable via AddFlow (MakePair panics),
	// so construct a 0-hop path only through the map directly is also not
	// allowed; instead verify simulate tolerates an empty path list per
	// pair by using an empty routing. (Zero-hop handling is internal.)
	res, err := simulate(g, r, 2, rand.New(rand.NewPCG(8, 8)))
	if err != nil || res.Makespan != 0 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}
