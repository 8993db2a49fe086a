package core

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"sparseroute/internal/demand"
	"sparseroute/internal/graph"
	"sparseroute/internal/graph/gen"
	"sparseroute/internal/mcf"
	"sparseroute/internal/oblivious"
)

func TestPathSystemAddAndQuery(t *testing.T) {
	g := gen.Ring(6)
	ps := NewPathSystem(g)
	p, err := g.ShortestPathHops(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.AddPath(p); err != nil {
		t.Fatal(err)
	}
	if err := ps.AddPath(p); err != nil { // duplicate: multiplicity 2
		t.Fatal(err)
	}
	if got := len(ps.Paths(0, 2)); got != 2 {
		t.Fatalf("multiplicity=%d, want 2", got)
	}
	if got := len(ps.Paths(2, 0)); got != 2 {
		t.Fatalf("endpoint order should not matter: %d", got)
	}
	if got := len(ps.Unique(0, 2)); got != 1 {
		t.Fatalf("unique=%d, want 1", got)
	}
	if ps.Sparsity() != 2 || ps.UniqueSparsity() != 1 {
		t.Fatalf("sparsity=%d unique=%d", ps.Sparsity(), ps.UniqueSparsity())
	}
	if ps.TotalPaths() != 2 {
		t.Fatalf("total=%d", ps.TotalPaths())
	}
	if err := ps.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPathSystemRejectsBadPaths(t *testing.T) {
	g := gen.Ring(5)
	ps := NewPathSystem(g)
	if err := ps.AddPath(graph.Path{Src: 0, Dst: 0}); err == nil {
		t.Fatal("self path should be rejected")
	}
	if err := ps.AddPath(graph.Path{Src: 0, Dst: 2, EdgeIDs: []int{0}}); err == nil {
		t.Fatal("invalid walk should be rejected")
	}
	// Non-simple: 0->1->0->... build via edges 0,0,1? Edge 0 joins 0-1.
	walk := graph.Path{Src: 0, Dst: 2, EdgeIDs: []int{0, 0, 0, 1}}
	if err := ps.AddPath(walk); err == nil {
		t.Fatal("non-simple walk should be rejected")
	}
}

func TestRestrictHops(t *testing.T) {
	g := gen.Ring(6)
	ps := NewPathSystem(g)
	short, _ := g.ShortestPathHops(0, 2) // 2 hops
	long := short.Reverse()              // also 2 hops; build a 4-hop instead
	long, _ = g.ShortestPathHops(0, 4)   // going 0-5-4 = 2 hops on a ring... use explicit path
	// Explicit long way around from 0 to 2: 0-5-4-3-2 (4 hops).
	longWay, err := graph.PathFromVertices(g, []int{0, 5, 4, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.AddPath(short); err != nil {
		t.Fatal(err)
	}
	if err := ps.AddPath(longWay); err != nil {
		t.Fatal(err)
	}
	_ = long
	restricted := ps.RestrictHops(2)
	if got := len(restricted.Paths(0, 2)); got != 1 {
		t.Fatalf("restricted paths=%d, want 1", got)
	}
	if restricted.MaxHops() != 2 {
		t.Fatalf("maxhops=%d", restricted.MaxHops())
	}
	if ps.MaxHops() != 4 {
		t.Fatalf("original maxhops=%d", ps.MaxHops())
	}
}

func TestMergeRequiresSameGraph(t *testing.T) {
	a := NewPathSystem(gen.Ring(5))
	b := NewPathSystem(gen.Ring(5))
	if err := a.Merge(b); err == nil {
		t.Fatal("different graph instances should be rejected")
	}
}

func TestAllPairs(t *testing.T) {
	pairs := AllPairs(4)
	if len(pairs) != 6 {
		t.Fatalf("pairs=%d, want 6", len(pairs))
	}
	for _, p := range pairs {
		if p.U >= p.V {
			t.Fatalf("non-canonical pair %v", p)
		}
	}
}

func TestRSampleBasics(t *testing.T) {
	g := gen.Hypercube(4)
	router, err := oblivious.NewValiant(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	pairs := []demand.Pair{{U: 0, V: 15}, {U: 1, V: 14}, {U: 2, V: 13}}
	ps, err := RSample(router, pairs, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if got := ps.NumSampled(p); got != 5 {
			t.Fatalf("pair %v sampled %d, want 5", p, got)
		}
	}
	if ps.Sparsity() != 5 {
		t.Fatalf("sparsity=%d", ps.Sparsity())
	}
	if err := ps.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRSampleDeterministicForSeed(t *testing.T) {
	g := gen.Hypercube(3)
	router, err := oblivious.NewValiant(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	pairs := AllPairs(8)
	a, err := RSample(router, pairs, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RSample(router, pairs, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		pa, pb := a.Paths(p.U, p.V), b.Paths(p.U, p.V)
		if len(pa) != len(pb) {
			t.Fatalf("pair %v: %d vs %d paths", p, len(pa), len(pb))
		}
		for i := range pa {
			if pa[i].Key() != pb[i].Key() {
				t.Fatalf("pair %v path %d differs across identical seeds", p, i)
			}
		}
	}
	c, err := RSample(router, pairs, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for _, p := range pairs {
		pa, pc := a.Paths(p.U, p.V), c.Paths(p.U, p.V)
		for i := range pa {
			if pa[i].Key() != pc[i].Key() {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds should give different samples")
	}
}

func TestRSampleValidatesR(t *testing.T) {
	g := gen.Hypercube(3)
	router, _ := oblivious.NewValiant(g, 3)
	if _, err := RSample(router, AllPairs(8), 0, 1); err == nil {
		t.Fatal("R=0 should be rejected")
	}
}

func TestRPlusLambdaSample(t *testing.T) {
	// Two cliques with 2 bridges: λ between cross-clique vertices is 2
	// (non-bridge endpoints), so cross pairs get R+2 samples.
	g := gen.TwoCliques(4, 2)
	router, err := oblivious.NewRandomDetour(g)
	if err != nil {
		t.Fatal(err)
	}
	pairs := []demand.Pair{{U: 2, V: 6}, {U: 0, V: 1}}
	ps, err := RPlusLambdaSample(router, pairs, 2, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Pair (2,6) crosses the bridges: λ=2, so 4 samples.
	if got := ps.NumSampled(demand.Pair{U: 2, V: 6}); got != 4 {
		t.Fatalf("cross pair sampled %d, want 4", got)
	}
	// Pair (0,1) inside a K4 with a bridge each: λ(0,1) = 3 within clique
	// + possibly bridge paths; min cut is deg-limited. Just check >= R+3.
	if got := ps.NumSampled(demand.Pair{U: 0, V: 1}); got < 5 {
		t.Fatalf("clique pair sampled %d, want >= 5", got)
	}
	// Cap λ.
	capped, err := RPlusLambdaSample(router, pairs, 2, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	if got := capped.NumSampled(demand.Pair{U: 0, V: 1}); got != 3 {
		t.Fatalf("capped sampled %d, want 3", got)
	}
}

func TestAdaptExactOnHypercube(t *testing.T) {
	g := gen.Hypercube(3)
	router, err := oblivious.NewValiant(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := demand.New()
	d.Set(0, 7, 1)
	d.Set(1, 6, 1)
	d.Set(2, 5, 1)
	ps, err := RSample(router, d.Support(), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ps.Adapt(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ValidateRoutes(g, d, 1e-6); err != nil {
		t.Fatal(err)
	}
	// Every used path must be one of the candidates.
	for _, p := range d.Support() {
		allowed := map[string]bool{}
		for _, c := range ps.Unique(p.U, p.V) {
			allowed[c.Key()] = true
		}
		for _, wp := range r[p] {
			if !allowed[wp.Path.Key()] {
				t.Fatalf("adaptation used a non-candidate path for %v", p)
			}
		}
	}
}

func TestAdaptFailsWithoutCoverage(t *testing.T) {
	g := gen.Hypercube(3)
	router, _ := oblivious.NewValiant(g, 3)
	ps, err := RSample(router, []demand.Pair{{U: 0, V: 7}}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := demand.SinglePair(1, 6, 1)
	if _, err := ps.Adapt(d, nil); err == nil {
		t.Fatal("uncovered demand should fail")
	}
}

func TestAdaptIntegral(t *testing.T) {
	g := gen.Hypercube(4)
	router, err := oblivious.NewValiant(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 5))
	d := demand.RandomPermutation(16, 6, rng)
	ps, err := RSample(router, d.Support(), 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ps.AdaptIntegral(d, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !r.IsIntegral(1e-9) {
		t.Fatal("integral adaptation returned fractional routing")
	}
	if err := r.ValidateRoutes(g, d, 1e-9); err != nil {
		t.Fatal(err)
	}
	frac, err := ps.Adapt(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Integral congestion >= fractional (minus numerics), and not absurd.
	if r.MaxCongestion(g)+1e-9 < frac.MaxCongestion(g)-1e-6 {
		t.Fatalf("integral %v below fractional %v", r.MaxCongestion(g), frac.MaxCongestion(g))
	}
	if r.MaxCongestion(g) > frac.MaxCongestion(g)+4 {
		t.Fatalf("integral %v too far above fractional %v (Lemma 6.3 additive log)", r.MaxCongestion(g), frac.MaxCongestion(g))
	}
	if _, err := ps.AdaptIntegral(demand.SinglePair(0, 15, 0.5), nil, rng); err == nil {
		t.Fatal("fractional demand should be rejected")
	}
}

func TestEvaluateHypercubeSampleIsCompetitive(t *testing.T) {
	// The headline theorem, miniature: on the 4-cube with log(n)=4 sampled
	// Valiant paths, a random permutation demand routes within a small
	// factor of OPT.
	g := gen.Hypercube(4)
	router, err := oblivious.NewValiant(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(6, 6))
	d := demand.RandomPermutation(16, 8, rng)
	ps, err := RSample(router, d.Support(), 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Evaluate(ps, router, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Opt <= 0 || rep.SemiOblivious <= 0 {
		t.Fatalf("degenerate report: %+v", rep)
	}
	if rep.Ratio < 1-0.15 { // MWU OPT may be slightly loose; allow margin
		t.Fatalf("semi-oblivious beat OPT by too much: %+v", rep)
	}
	if rep.Ratio > 8 {
		t.Fatalf("competitive ratio %v too large for log-sparsity on the 4-cube", rep.Ratio)
	}
	if rep.RatioVsOblivious > 3 {
		t.Fatalf("sample should track its base oblivious routing: %+v", rep)
	}
}

func TestCompletionTimeSampleAndAdapt(t *testing.T) {
	g := gen.Grid(4, 4)
	rng := rand.New(rand.NewPCG(7, 7))
	d := demand.RandomPermutation(16, 5, rng)
	ps, err := CompletionTimeSample(g, d.Support(), 3, 21)
	if err != nil {
		t.Fatal(err)
	}
	if !ps.Covers(d) {
		t.Fatal("completion-time sample must cover the pairs")
	}
	res, err := ps.AdaptCompletionTime(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Routing.ValidateRoutes(g, d, 1e-6); err != nil {
		t.Fatal(err)
	}
	if res.Dilation > ps.MaxHops() {
		t.Fatalf("dilation %d exceeds system max hops %d", res.Dilation, ps.MaxHops())
	}
	if math.Abs(res.CompletionTime-(res.Congestion+float64(res.Dilation))) > 1e-9 {
		t.Fatal("completion time should be congestion + dilation")
	}
	// The chosen class cannot be worse than adapting with no dilation
	// control plus the max dilation.
	plain, err := ps.Adapt(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	worst := plain.MaxCongestion(g) + float64(ps.MaxHops())
	if res.CompletionTime > worst+1e-6 {
		t.Fatalf("completion-time adaptation (%v) worse than trivial bound (%v)", res.CompletionTime, worst)
	}
}

// Regression: this exact configuration once drove the simplex into a
// numerically corrupt basis (flows of 1e6 on a unit demand) that the solver
// reported as optimal. The LP layer now verifies its solution and Adapt
// falls back to MWU, so the routed flow must match the demand exactly.
func TestAdaptRestrictedUnionSystemFlowConservation(t *testing.T) {
	g := gen.Grid(6, 6)
	rng := rand.New(rand.NewPCG(5, 0xd))
	d := demand.RandomPermutation(g.NumVertices(), 10, rng)
	ps, err := CompletionTimeSample(g, d.Support(), 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	sub := ps.RestrictHops(9)
	if !sub.Covers(d) {
		t.Skip("restricted system does not cover this demand draw")
	}
	r, err := sub.Adapt(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ValidateRoutes(g, d, 1e-6); err != nil {
		t.Fatalf("flow conservation violated: %v", err)
	}
}

func TestRestrictHopsKeepShortestAlwaysCovers(t *testing.T) {
	g := gen.Grid(5, 5)
	rng := rand.New(rand.NewPCG(9, 9))
	d := demand.RandomPermutation(25, 8, rng)
	ps, err := CompletionTimeSample(g, d.Support(), 2, 31)
	if err != nil {
		t.Fatal(err)
	}
	for h := 1; h <= ps.MaxHops(); h *= 2 {
		sub := ps.restrictHopsKeepShortest(h)
		if !sub.Covers(d) {
			t.Fatalf("class h=%d lost coverage", h)
		}
	}
}

// Regression: RSample samples pairs in parallel, and every router that
// memoizes (Raecke trees, KSP, SPF, hop-constrained, electrical) must be
// safe under that concurrency. This test crashed with "concurrent map
// writes" before the router caches were mutex-guarded.
func TestRSampleConcurrentOverCachingRouters(t *testing.T) {
	g := gen.Grid(5, 5)
	pairs := AllPairs(25)
	rng := rand.New(rand.NewPCG(3, 3))
	raecke, err := oblivious.NewRaecke(g, &oblivious.RaeckeOptions{NumTrees: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	electrical, err := oblivious.NewElectrical(g)
	if err != nil {
		t.Fatal(err)
	}
	detour, err := oblivious.NewRandomDetour(g)
	if err != nil {
		t.Fatal(err)
	}
	routers := []oblivious.Router{
		raecke,
		electrical,
		detour,
		oblivious.NewKSP(g, 3, nil),
		oblivious.NewSPF(g),
	}
	for i, r := range routers {
		ps, err := RSample(r, pairs, 3, uint64(50+i))
		if err != nil {
			t.Fatalf("router %d: %v", i, err)
		}
		if err := ps.Validate(); err != nil {
			t.Fatalf("router %d: %v", i, err)
		}
		if ps.TotalPaths() != 3*len(pairs) {
			t.Fatalf("router %d: total=%d", i, ps.TotalPaths())
		}
	}
}

func TestSystemStats(t *testing.T) {
	g := gen.Ring(6)
	ps := NewPathSystem(g)
	short, err := graph.PathFromVertices(g, []int{0, 1, 2}) // 2 hops
	if err != nil {
		t.Fatal(err)
	}
	long, err := graph.PathFromVertices(g, []int{0, 5, 4, 3, 2}) // 4 hops
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.AddPath(short); err != nil {
		t.Fatal(err)
	}
	if err := ps.AddPath(short); err != nil { // duplicate sample
		t.Fatal(err)
	}
	if err := ps.AddPath(long); err != nil {
		t.Fatal(err)
	}
	st := ps.Stats()
	if st.Pairs != 1 || st.TotalPaths != 3 || st.Sparsity != 3 || st.UniqueSparsity != 2 {
		t.Fatalf("counts wrong: %+v", st)
	}
	if math.Abs(st.MeanHops-3) > 1e-12 { // (2+4)/2 over distinct paths
		t.Fatalf("mean hops=%v", st.MeanHops)
	}
	if st.MaxHops != 4 {
		t.Fatalf("max hops=%d", st.MaxHops)
	}
	if math.Abs(st.MeanStretch-1.5) > 1e-12 { // (1 + 2)/2
		t.Fatalf("stretch=%v", st.MeanStretch)
	}
	// The two distinct paths are edge-disjoint (opposite ring arcs).
	if st.DisjointFraction != 1 {
		t.Fatalf("disjoint fraction=%v, want 1", st.DisjointFraction)
	}
	empty := NewPathSystem(g).Stats()
	if empty.Pairs != 0 || empty.MeanHops != 0 {
		t.Fatalf("empty stats wrong: %+v", empty)
	}
}

func TestWithoutEdges(t *testing.T) {
	g := gen.Ring(6)
	ps := NewPathSystem(g)
	short, err := graph.PathFromVertices(g, []int{0, 1, 2}) // edges 0,1
	if err != nil {
		t.Fatal(err)
	}
	long, err := graph.PathFromVertices(g, []int{0, 5, 4, 3, 2}) // edges 5,4,3
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.AddPath(short); err != nil {
		t.Fatal(err)
	}
	if err := ps.AddPath(long); err != nil {
		t.Fatal(err)
	}
	// Failing edge 1 kills the short path only.
	surv := ps.WithoutEdges(map[int]bool{1: true})
	if got := len(surv.Paths(0, 2)); got != 1 {
		t.Fatalf("survivors=%d, want 1", got)
	}
	if surv.Paths(0, 2)[0].Hops() != 4 {
		t.Fatal("wrong survivor")
	}
	// Failing both routes empties the pair.
	dead := ps.WithoutEdges(map[int]bool{1: true, 4: true})
	if len(dead.Paths(0, 2)) != 0 {
		t.Fatal("pair should have no survivors")
	}
	if dead.Covers(demand.SinglePair(0, 2, 1)) {
		t.Fatal("coverage should be lost")
	}
	// No failures: identity.
	same := ps.WithoutEdges(nil)
	if same.TotalPaths() != ps.TotalPaths() {
		t.Fatal("no-failure filter should keep everything")
	}
}

func TestCompletionTimeSampleWithCuts(t *testing.T) {
	g := gen.Grid(4, 4)
	pairs := []demand.Pair{{U: 0, V: 15}, {U: 1, V: 14}}
	plain, err := CompletionTimeSample(g, pairs, 2, 41)
	if err != nil {
		t.Fatal(err)
	}
	withCuts, err := CompletionTimeSampleWithCuts(g, pairs, 2, 0, 41)
	if err != nil {
		t.Fatal(err)
	}
	// λ >= 2 everywhere on an interior grid pair: strictly more samples.
	for _, p := range pairs {
		if withCuts.NumSampled(p) <= plain.NumSampled(p) {
			t.Fatalf("pair %v: withCuts %d <= plain %d",
				p, withCuts.NumSampled(p), plain.NumSampled(p))
		}
	}
	// A non-unit integral demand routes with bounded congestion and the
	// completion-time adaptation still works.
	d := demand.New()
	d.Set(0, 15, 2)
	d.Set(1, 14, 2)
	res, err := withCuts.AdaptCompletionTime(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Routing.ValidateRoutes(g, d, 1e-6); err != nil {
		t.Fatal(err)
	}
	capped, err := CompletionTimeSampleWithCuts(g, pairs, 2, 1, 41)
	if err != nil {
		t.Fatal(err)
	}
	if capped.TotalPaths() >= withCuts.TotalPaths() {
		t.Fatal("lambda cap should reduce the sample size")
	}
}

func TestAdaptCompletionTimeEmptySystem(t *testing.T) {
	ps := NewPathSystem(gen.Ring(4))
	if _, err := ps.AdaptCompletionTime(demand.SinglePair(0, 1, 1), nil); err == nil {
		t.Fatal("empty system should fail")
	}
}

// TestAdaptCtxCancellation covers the ctx-threaded adaptation stack: both
// solver paths abort on a pre-canceled context, a mid-solve deadline stops
// an MWU run sized to need many iterations, and the wrappers propagate.
func TestAdaptCtxCancellation(t *testing.T) {
	g := graph.New(4)
	a1 := g.AddUnitEdge(0, 1)
	a2 := g.AddUnitEdge(1, 3)
	b1 := g.AddUnitEdge(0, 2)
	b2 := g.AddUnitEdge(2, 3)
	ps := NewPathSystem(g)
	for _, p := range []graph.Path{
		{Src: 0, Dst: 3, EdgeIDs: []int{a1, a2}},
		{Src: 0, Dst: 3, EdgeIDs: []int{b1, b2}},
	} {
		if err := ps.AddPath(p); err != nil {
			t.Fatal(err)
		}
	}
	d := demand.SinglePair(0, 3, 2)

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		opt  *AdaptOptions
	}{
		{"exact", &AdaptOptions{ExactThreshold: 600}},
		{"mwu", &AdaptOptions{ExactThreshold: -1}},
	} {
		if _, err := ps.AdaptCtx(canceled, d, tc.opt); !errors.Is(err, context.Canceled) {
			t.Errorf("%s pre-canceled: err=%v, want context.Canceled", tc.name, err)
		}
		r, err := ps.AdaptCtx(context.Background(), d, tc.opt)
		if err != nil {
			t.Errorf("%s live ctx: %v", tc.name, err)
		} else if err := r.ValidateRoutes(g, d, 1e-7); err != nil {
			t.Errorf("%s live ctx routing: %v", tc.name, err)
		}
	}

	// Mid-solve: force the MWU path with an iteration budget that would run
	// for minutes; the deadline must stop it promptly.
	slow := &AdaptOptions{ExactThreshold: -1, MWU: mcf.Options{Iterations: 1 << 30}}
	ctx, cancelT := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancelT()
	start := time.Now()
	if _, err := ps.AdaptCtx(ctx, d, slow); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-solve: err=%v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v to land", elapsed)
	}

	// The wrappers propagate cancellation.
	if _, err := ps.AdaptCongestionCtx(canceled, d, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("AdaptCongestionCtx: err=%v, want context.Canceled", err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	if _, err := ps.adaptIntegralCtx(canceled, d, nil, rng); !errors.Is(err, context.Canceled) {
		t.Errorf("adaptIntegralCtx: err=%v, want context.Canceled", err)
	}
}
