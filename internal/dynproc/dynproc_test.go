package dynproc

import (
	"math"
	"math/rand/v2"
	"testing"

	"sparseroute/internal/core"
	"sparseroute/internal/demand"
	"sparseroute/internal/graph"
	"sparseroute/internal/graph/gen"
	"sparseroute/internal/oblivious"
)

// buildSample samples s Valiant paths per pair of a random permutation on
// the d-cube.
func buildSample(t *testing.T, dim, pairs, s int, seed uint64) (*core.PathSystem, *demand.Demand) {
	t.Helper()
	g := gen.Hypercube(dim)
	router, err := oblivious.NewValiant(g, dim)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(seed, 1))
	d := demand.RandomPermutation(1<<dim, pairs, rng)
	ps, err := core.RSample(router, d.Support(), s, seed)
	if err != nil {
		t.Fatal(err)
	}
	return ps, d
}

func TestRunNoOvercongestionKeepsEverything(t *testing.T) {
	ps, d := buildSample(t, 4, 4, 4, 3)
	// Huge threshold: nothing deleted.
	res, err := Run(ps, d, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.RoutedFraction-1) > 1e-9 {
		t.Fatalf("fraction=%v, want 1", res.RoutedFraction)
	}
	if len(res.Overcongested) != 0 {
		t.Fatalf("overcongested=%v, want none", res.Overcongested)
	}
	if err := res.Routing.ValidateRoutes(ps.Graph(), d, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestRunSurvivorCongestionBounded(t *testing.T) {
	ps, d := buildSample(t, 5, 10, 3, 4)
	threshold := 0.75
	res, err := Run(ps, d, threshold)
	if err != nil {
		t.Fatal(err)
	}
	// The invariant the process guarantees: survivors never congest any
	// edge beyond the threshold.
	if c := res.Routing.MaxCongestion(ps.Graph()); c > threshold+1e-9 {
		t.Fatalf("survivor congestion %v exceeds threshold %v", c, threshold)
	}
	// Survivors is exactly what Routing routes.
	if err := res.Routing.ValidateRoutes(ps.Graph(), res.Survivors, 1e-9); err != nil {
		t.Fatal(err)
	}
	if res.RoutedFraction < 0 || res.RoutedFraction > 1 {
		t.Fatalf("fraction out of range: %v", res.RoutedFraction)
	}
}

func TestRunTinyThresholdDeletesEverything(t *testing.T) {
	ps, d := buildSample(t, 4, 4, 2, 5)
	res, err := Run(ps, d, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if res.RoutedFraction > 1e-9 {
		t.Fatalf("fraction=%v, want 0", res.RoutedFraction)
	}
	stats := patternStats(res)
	if stats.TotalDeleted < d.Size()-1e-9 {
		t.Fatalf("deleted %v, want %v", stats.TotalDeleted, d.Size())
	}
	if stats.NonzeroEntries == 0 || stats.MaxSingleEdge <= 0 {
		t.Fatalf("stats malformed: %+v", stats)
	}
}

func TestRunValidatesInput(t *testing.T) {
	ps, d := buildSample(t, 3, 2, 2, 6)
	if _, err := Run(ps, d, 0); err == nil {
		t.Fatal("zero threshold should be rejected")
	}
	uncovered := demand.SinglePair(0, 1, 1)
	if ps.NumSampled(demand.MakePair(0, 1)) == 0 {
		if _, err := Run(ps, uncovered, 1); err == nil {
			t.Fatal("uncovered demand should fail")
		}
	}
}

func TestWeakRoutingConcentration(t *testing.T) {
	// The paper's qualitative claim: with enough sampled paths and a
	// constant-factor threshold over the base routing's congestion, at
	// least half the demand survives. On the 5-cube with s=8 and a modest
	// threshold this should hold for every seed.
	for seed := uint64(0); seed < 5; seed++ {
		ps, d := buildSample(t, 5, 16, 8, 100+seed)
		res, err := Run(ps, d, 2.0)
		if err != nil {
			t.Fatal(err)
		}
		if res.RoutedFraction < 0.5 {
			t.Fatalf("seed %d: weak routing failed: fraction=%v", seed, res.RoutedFraction)
		}
	}
}

func TestSparsityImprovesSurvival(t *testing.T) {
	// Averaged over seeds, larger s should never hurt the surviving
	// fraction at a fixed tight threshold.
	avg := func(s int) float64 {
		var sum float64
		const trials = 5
		for seed := uint64(0); seed < trials; seed++ {
			ps, d := buildSample(t, 5, 16, s, 200+seed)
			res, err := Run(ps, d, 1.0)
			if err != nil {
				t.Fatal(err)
			}
			sum += res.RoutedFraction
		}
		return sum / trials
	}
	lo, hi := avg(1), avg(8)
	if hi < lo-0.05 {
		t.Fatalf("more paths should survive more: s=1 gives %v, s=8 gives %v", lo, hi)
	}
}

func TestRouteByHalvingRoutesFullDemand(t *testing.T) {
	ps, d := buildSample(t, 5, 12, 6, 7)
	routing, rounds, err := routeByHalving(ps, d, 1.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rounds < 1 {
		t.Fatalf("rounds=%d", rounds)
	}
	if err := routing.ValidateRoutes(ps.Graph(), d, 1e-9); err != nil {
		t.Fatal(err)
	}
	// Congestion bounded by threshold·rounds + tail.
	if c := routing.MaxCongestion(ps.Graph()); c > 1.5*float64(rounds)+float64(d.SupportSize()) {
		t.Fatalf("halving congestion %v implausibly high", c)
	}
}

func TestExtractBadPattern(t *testing.T) {
	ps, d := buildSample(t, 5, 16, 2, 9)
	res, err := Run(ps, d, 0.4) // tight threshold: many deletions
	if err != nil {
		t.Fatal(err)
	}
	entries, certifies := extractBadPattern(res, d.Size())
	var sum float64
	prev := -1
	for _, e := range entries {
		if e.Deleted <= 0 {
			t.Fatalf("nonpositive pattern entry %+v", e)
		}
		if e.EdgeID <= prev {
			t.Fatal("pattern entries not in edge order")
		}
		prev = e.EdgeID
		sum += e.Deleted
	}
	// Deleted + survived = total demand (conservation of weight).
	if got := sum + res.Survivors.Size(); got < d.Size()-1e-9 || got > d.Size()+1e-9 {
		t.Fatalf("weight not conserved: deleted %v + survived %v != %v", sum, res.Survivors.Size(), d.Size())
	}
	// Lemma 5.12: failure (< 1/2 routed) iff the pattern certifies.
	if (res.RoutedFraction < 0.5) != certifies {
		t.Fatalf("certification mismatch: fraction=%v certifies=%v", res.RoutedFraction, certifies)
	}
}

func TestExtractBadPatternNoDeletions(t *testing.T) {
	ps, d := buildSample(t, 4, 4, 4, 10)
	res, err := Run(ps, d, 1000)
	if err != nil {
		t.Fatal(err)
	}
	entries, certifies := extractBadPattern(res, d.Size())
	if len(entries) != 0 || certifies {
		t.Fatalf("clean run should yield empty non-certifying pattern: %v %v", entries, certifies)
	}
}

func TestRouteByHalvingValidatesInput(t *testing.T) {
	ps, d := buildSample(t, 3, 2, 2, 8)
	if _, _, err := routeByHalving(ps, d, 1, 0); err == nil {
		t.Fatal("maxRounds=0 should be rejected")
	}
}

func TestRunOnLineGraphDeterministic(t *testing.T) {
	// Hand-checkable instance: a path graph where two pairs share one edge.
	g := graph.New(3)
	e01 := g.AddUnitEdge(0, 1)
	e12 := g.AddUnitEdge(1, 2)
	ps := core.NewPathSystem(g)
	if err := ps.AddPath(graph.Path{Src: 0, Dst: 1, EdgeIDs: []int{e01}}); err != nil {
		t.Fatal(err)
	}
	if err := ps.AddPath(graph.Path{Src: 0, Dst: 2, EdgeIDs: []int{e01, e12}}); err != nil {
		t.Fatal(err)
	}
	d := demand.New()
	d.Set(0, 1, 1)
	d.Set(0, 2, 1)
	// Edge e01 carries 2 > threshold 1.5: both paths deleted.
	res, err := Run(ps, d, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.RoutedFraction != 0 {
		t.Fatalf("fraction=%v, want 0 (both paths cross the hot edge)", res.RoutedFraction)
	}
	if len(res.Overcongested) != 1 || res.Overcongested[0] != e01 {
		t.Fatalf("overcongested=%v", res.Overcongested)
	}
	if math.Abs(res.DeletedAt[e01]-2) > 1e-9 {
		t.Fatalf("deleted at e01=%v, want 2", res.DeletedAt[e01])
	}
}
