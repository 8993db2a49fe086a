package sparseroute_test

import (
	"math"
	"testing"
	"testing/quick"

	"sparseroute"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	g := sparseroute.Hypercube(4)
	router, err := sparseroute.NewValiantRouter(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	d := sparseroute.RandomPermutationDemand(g.NumVertices(), 6, 1)
	system, err := sparseroute.Sample(router, d.Support(), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	routing, err := system.Adapt(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := routing.ValidateRoutes(g, d, 1e-6); err != nil {
		t.Fatal(err)
	}
	opt, err := sparseroute.OptimalCongestion(g, d, 200)
	if err != nil {
		t.Fatal(err)
	}
	if opt <= 0 {
		t.Fatalf("opt=%v", opt)
	}
	rep, err := sparseroute.Evaluate(system, router, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ratio <= 0 || rep.RatioVsOblivious <= 0 {
		t.Fatalf("report degenerate: %+v", rep)
	}
}

func TestFacadeTopologies(t *testing.T) {
	cases := []struct {
		name string
		g    *sparseroute.Graph
		n    int
	}{
		{"hypercube", sparseroute.Hypercube(3), 8},
		{"grid", sparseroute.Grid(3, 4), 12},
		{"torus", sparseroute.Torus(3, 3), 9},
		{"expander", sparseroute.Expander(16, 4, 1), 16},
		{"wan", sparseroute.SyntheticWAN(10, 8, 2), 10},
	}
	for _, tc := range cases {
		if tc.g.NumVertices() != tc.n {
			t.Fatalf("%s: n=%d, want %d", tc.name, tc.g.NumVertices(), tc.n)
		}
		if !tc.g.Connected() {
			t.Fatalf("%s disconnected", tc.name)
		}
	}
	ft, edges := sparseroute.FatTree(4)
	if !ft.Connected() || len(edges) != 8 {
		t.Fatal("fat-tree malformed")
	}
}

func TestFacadeWorstDemandSearch(t *testing.T) {
	g := sparseroute.Hypercube(3)
	router, err := sparseroute.NewValiantRouter(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := sparseroute.Sample(router, sparseroute.AllPairs(8), 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	d, ratio, err := sparseroute.WorstDemandSearch(ps, 2, 4, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if d == nil || !d.IsPermutation() || ratio <= 0 {
		t.Fatalf("bad search result: %v %v", d, ratio)
	}
}

func TestFacadeOptimalCongestionInterval(t *testing.T) {
	g := sparseroute.Hypercube(3)
	d := sparseroute.RandomPermutationDemand(8, 3, 2)
	lo, hi, err := sparseroute.OptimalCongestionInterval(g, d, 400)
	if err != nil {
		t.Fatal(err)
	}
	if lo <= 0 || hi < lo {
		t.Fatalf("bad interval [%v, %v]", lo, hi)
	}
	if hi > 3*lo {
		t.Fatalf("interval too loose: [%v, %v]", lo, hi)
	}
}

func TestFacadeMinCut(t *testing.T) {
	g := sparseroute.Hypercube(3)
	if l := sparseroute.MinCut(g, 0, 7); l != 3 {
		t.Fatalf("lambda=%v, want 3", l)
	}
}

func TestFacadeIntegralAndSchedule(t *testing.T) {
	g := sparseroute.Grid(4, 4)
	router, err := sparseroute.NewRaeckeRouter(g, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := sparseroute.RandomPermutationDemand(16, 4, 4)
	system, err := sparseroute.Sample(router, d.Support(), 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	integral, err := sparseroute.IntegralAdapt(system, d, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !integral.IsIntegral(1e-9) {
		t.Fatal("not integral")
	}
	res, err := sparseroute.SimulatePackets(g, integral, 2, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan < res.LowerBound() {
		t.Fatalf("makespan %d below lower bound %d", res.Makespan, res.LowerBound())
	}
}

func TestFacadeCompletionTime(t *testing.T) {
	g := sparseroute.Grid(4, 4)
	d := sparseroute.RandomPermutationDemand(16, 4, 7)
	system, err := sparseroute.SampleForCompletionTime(g, d.Support(), 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := system.AdaptCompletionTime(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionTime <= 0 {
		t.Fatalf("completion=%v", res.CompletionTime)
	}
}

func TestFacadeSampleWithCuts(t *testing.T) {
	g := sparseroute.Grid(3, 3)
	router := sparseroute.NewKSPRouter(g, 3)
	pairs := []sparseroute.Pair{{U: 0, V: 8}}
	system, err := sparseroute.SampleWithCuts(router, pairs, 2, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	// lambda capped at 1: exactly 3 samples.
	if got := system.NumSampled(pairs[0]); got != 3 {
		t.Fatalf("sampled=%d, want 3", got)
	}
}

func TestFacadeDemandsAndBuilders(t *testing.T) {
	g := sparseroute.NewGraph(4)
	g.AddUnitEdge(0, 1)
	g.AddUnitEdge(1, 2)
	g.AddUnitEdge(2, 3)
	d := sparseroute.NewDemand()
	d.Set(0, 3, 1)
	ps := sparseroute.NewPathSystem(g)
	p, err := g.ShortestPathHops(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.AddPath(p); err != nil {
		t.Fatal(err)
	}
	r, err := ps.Adapt(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxCongestion(g) != 1 {
		t.Fatalf("congestion=%v", r.MaxCongestion(g))
	}
	if got := len(sparseroute.AllPairs(4)); got != 6 {
		t.Fatalf("AllPairs=%d", got)
	}
}

func TestFacadeHypercubeDemands(t *testing.T) {
	if !sparseroute.TransposeDemand(4).IsPermutation() {
		t.Fatal("transpose not a permutation")
	}
	if !sparseroute.BitReversalDemand(3).IsPermutation() {
		t.Fatal("bit reversal not a permutation")
	}
	g := sparseroute.Grid(3, 3)
	gd := sparseroute.GravityDemand(g, 9, 5, 1)
	if gd.SupportSize() != 5 || math.Abs(gd.Size()-9) > 1e-9 {
		t.Fatalf("gravity demand malformed: %v", gd)
	}
}

func TestFacadeHopConstrainedRouter(t *testing.T) {
	g := sparseroute.Grid(3, 3)
	r, err := sparseroute.NewHopConstrainedRouter(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	d := sparseroute.NewDemand()
	d.Set(0, 8, 1)
	c, err := sparseroute.ObliviousCongestion(r, d)
	if err != nil {
		t.Fatal(err)
	}
	if c <= 0 {
		t.Fatalf("congestion=%v", c)
	}
}

func TestFacadeCompletionWithCuts(t *testing.T) {
	g := sparseroute.Grid(3, 3)
	pairs := []sparseroute.Pair{{U: 0, V: 8}}
	sys, err := sparseroute.SampleForCompletionTimeWithCuts(g, pairs, 1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumSampled(pairs[0]) < 2 {
		t.Fatalf("sampled=%d, want >= 2 (one scale, R+lambda)", sys.NumSampled(pairs[0]))
	}
}

// Property: sampling more paths never hurts the adapted congestion, for any
// seed (supersets of candidates can only help the LP).
func TestMorePathsNeverHurtProperty(t *testing.T) {
	g := sparseroute.Hypercube(4)
	router, err := sparseroute.NewValiantRouter(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seedRaw uint16) bool {
		seed := uint64(seedRaw)
		d := sparseroute.RandomPermutationDemand(16, 5, seed)
		small, err := sparseroute.Sample(router, d.Support(), 2, seed)
		if err != nil {
			return false
		}
		// The larger sample replays the same per-pair streams, so its
		// candidates are a superset of the smaller sample's.
		big, err := sparseroute.Sample(router, d.Support(), 6, seed)
		if err != nil {
			return false
		}
		rs, err := small.Adapt(d, nil)
		if err != nil {
			return false
		}
		rb, err := big.Adapt(d, nil)
		if err != nil {
			return false
		}
		return rb.MaxCongestion(g) <= rs.MaxCongestion(g)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: adapted congestion is scale-equivariant: Adapt(c·d) has exactly
// c times the congestion of Adapt(d) at the LP optimum.
func TestAdaptScaleEquivariantProperty(t *testing.T) {
	g := sparseroute.Hypercube(4)
	router, err := sparseroute.NewValiantRouter(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seedRaw uint16, scaleRaw uint8) bool {
		seed := uint64(seedRaw)
		scale := 1 + float64(scaleRaw%7)
		d := sparseroute.RandomPermutationDemand(16, 4, seed)
		system, err := sparseroute.Sample(router, d.Support(), 3, seed)
		if err != nil {
			return false
		}
		r1, err := system.Adapt(d, nil)
		if err != nil {
			return false
		}
		r2, err := system.Adapt(d.Scale(scale), nil)
		if err != nil {
			return false
		}
		c1 := r1.MaxCongestion(g) * scale
		c2 := r2.MaxCongestion(g)
		return math.Abs(c1-c2) <= 0.05*c1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
