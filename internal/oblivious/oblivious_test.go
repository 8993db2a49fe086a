package oblivious

import (
	"math"
	"math/rand/v2"
	"testing"

	"sparseroute/internal/demand"
	"sparseroute/internal/graph"
	"sparseroute/internal/graph/gen"
)

func checkRouterBasics(t *testing.T, r Router, pairs [][2]int, rng *rand.Rand) {
	t.Helper()
	g := r.Graph()
	for _, pr := range pairs {
		u, v := pr[0], pr[1]
		p, err := r.Sample(u, v, rng)
		if err != nil {
			t.Fatalf("Sample(%d,%d): %v", u, v, err)
		}
		if p.Src != u || p.Dst != v {
			t.Fatalf("Sample(%d,%d) endpoints: %+v", u, v, p)
		}
		if err := p.Validate(g); err != nil {
			t.Fatalf("Sample(%d,%d) invalid: %v", u, v, err)
		}
		if !p.IsSimple(g) {
			t.Fatalf("Sample(%d,%d) not simple", u, v)
		}
		dist, err := r.Distribution(u, v)
		if err != nil {
			t.Fatalf("Distribution(%d,%d): %v", u, v, err)
		}
		var sum float64
		for _, wp := range dist {
			sum += wp.Weight
			if wp.Weight <= 0 {
				t.Fatalf("Distribution(%d,%d): nonpositive weight", u, v)
			}
			if wp.Path.Src != u || wp.Path.Dst != v {
				t.Fatalf("Distribution(%d,%d): endpoints %+v", u, v, wp.Path)
			}
			if err := wp.Path.Validate(g); err != nil {
				t.Fatalf("Distribution(%d,%d): %v", u, v, err)
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("Distribution(%d,%d) weights sum to %v", u, v, sum)
		}
	}
}

func TestSPFBasics(t *testing.T) {
	g := gen.Grid(4, 4)
	r := NewSPF(g)
	rng := rand.New(rand.NewPCG(1, 1))
	checkRouterBasics(t, r, [][2]int{{0, 15}, {3, 12}, {5, 6}}, rng)
	// SPF paths are hop-shortest.
	p, _ := r.Sample(0, 15, rng)
	if p.Hops() != 6 {
		t.Fatalf("SPF path hops=%d, want 6", p.Hops())
	}
	// Deterministic.
	q, _ := r.Sample(0, 15, rng)
	if p.Key() != q.Key() {
		t.Fatal("SPF should be deterministic")
	}
}

func TestKSPBasics(t *testing.T) {
	g := gen.Grid(3, 3)
	r := NewKSP(g, 4, nil)
	rng := rand.New(rand.NewPCG(2, 2))
	checkRouterBasics(t, r, [][2]int{{0, 8}, {1, 7}}, rng)
	paths, err := r.Paths(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 4 {
		t.Fatalf("got %d paths, want 4", len(paths))
	}
	// Sorted by length, all distinct, all simple.
	seen := map[string]bool{}
	for i, p := range paths {
		if seen[p.Key()] {
			t.Fatal("duplicate KSP path")
		}
		seen[p.Key()] = true
		if !p.IsSimple(g) {
			t.Fatal("KSP path not simple")
		}
		if i > 0 && p.Hops() < paths[i-1].Hops() {
			t.Fatal("KSP paths not length-sorted")
		}
	}
	// The shortest must be a true shortest path (4 hops on the 3x3 grid
	// corner to corner).
	if paths[0].Hops() != 4 {
		t.Fatalf("first KSP path hops=%d, want 4", paths[0].Hops())
	}
}

func TestKSPFewerPathsThanK(t *testing.T) {
	// A path graph has exactly one simple route.
	g := graph.New(3)
	g.AddUnitEdge(0, 1)
	g.AddUnitEdge(1, 2)
	r := NewKSP(g, 5, nil)
	paths, err := r.Paths(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("got %d paths, want 1", len(paths))
	}
}

func TestKSPDirectionConsistency(t *testing.T) {
	g := gen.Grid(3, 3)
	r := NewKSP(g, 3, nil)
	fwd, err := r.Paths(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := r.Paths(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(fwd) != len(rev) {
		t.Fatal("asymmetric path counts")
	}
	for i := range fwd {
		if fwd[i].Key() != rev[i].Key() {
			t.Fatal("reverse direction should mirror the same paths")
		}
		if rev[i].Src != 8 || rev[i].Dst != 0 {
			t.Fatal("reverse paths must start at the queried source")
		}
	}
}

func TestValiantBasics(t *testing.T) {
	g := gen.Hypercube(4)
	r, err := NewValiant(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 3))
	checkRouterBasics(t, r, [][2]int{{0, 15}, {1, 14}, {3, 5}}, rng)
}

func TestValiantRejectsNonHypercube(t *testing.T) {
	if _, err := NewValiant(gen.Ring(16), 4); err == nil {
		t.Fatal("ring should be rejected")
	}
	if _, err := NewValiant(gen.Hypercube(3), 4); err == nil {
		t.Fatal("wrong dimension should be rejected")
	}
}

func TestGreedyBitFixPath(t *testing.T) {
	g := gen.Hypercube(3)
	r, err := NewGreedyBitFix(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(4, 4))
	checkRouterBasics(t, r, [][2]int{{0, 7}, {2, 5}}, rng)
	p, _ := r.Sample(0, 7, rng)
	// Must fix exactly the 3 differing bits: hops = Hamming distance.
	if p.Hops() != 3 {
		t.Fatalf("bit-fix hops=%d, want 3", p.Hops())
	}
}

func TestValiantExpectedCongestionBeatsGreedyOnTranspose(t *testing.T) {
	// The motivating separation: on the transpose permutation of the
	// d=6 cube, greedy bit-fixing concentrates sqrt(N)=8 paths on a single
	// edge while Valiant spreads them out.
	dim := 6
	g := gen.Hypercube(dim)
	d := demand.Transpose(dim)
	greedy, err := NewGreedyBitFix(g, dim)
	if err != nil {
		t.Fatal(err)
	}
	cGreedy, err := Congestion(greedy, d)
	if err != nil {
		t.Fatal(err)
	}
	val, err := NewValiant(g, dim)
	if err != nil {
		t.Fatal(err)
	}
	cVal, err := Congestion(val, d)
	if err != nil {
		t.Fatal(err)
	}
	if cGreedy < 2*cVal {
		t.Fatalf("expected a clear separation: greedy=%v valiant=%v", cGreedy, cVal)
	}
	if cVal > 3 {
		t.Fatalf("valiant fractional congestion too high: %v", cVal)
	}
}

func TestRaeckeBasics(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	g := gen.Grid(4, 4)
	r, err := NewRaecke(g, &RaeckeOptions{NumTrees: 6}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if r.numTrees() != 6 {
		t.Fatalf("trees=%d", r.numTrees())
	}
	checkRouterBasics(t, r, [][2]int{{0, 15}, {2, 13}, {4, 11}}, rng)
}

func TestRaeckeCompetitiveOnGrid(t *testing.T) {
	// Sanity: on a grid with a random permutation demand, the Raecke
	// routing's fractional congestion should be within a modest factor of
	// the shortest-path lower bound (it is O(log n)-competitive in theory).
	rng := rand.New(rand.NewPCG(6, 6))
	g := gen.Grid(5, 5)
	r, err := NewRaecke(g, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	d := demand.RandomPermutation(25, 10, rng)
	c, err := Congestion(r, d)
	if err != nil {
		t.Fatal(err)
	}
	if c > 25 {
		t.Fatalf("Raecke congestion %v unreasonably high", c)
	}
	if c <= 0 {
		t.Fatalf("Raecke congestion %v nonpositive", c)
	}
}

func TestRaeckeRejectsDisconnected(t *testing.T) {
	g := graph.New(4)
	g.AddUnitEdge(0, 1)
	g.AddUnitEdge(2, 3)
	if _, err := NewRaecke(g, nil, rand.New(rand.NewPCG(7, 7))); err == nil {
		t.Fatal("disconnected graph should be rejected")
	}
}

func TestHopConstrainedRespectsBudget(t *testing.T) {
	g := gen.Grid(4, 4)
	budget := 8
	r, err := NewHopConstrained(g, budget)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(8, 8))
	checkRouterBasics(t, r, [][2]int{{0, 15}, {1, 14}}, rng)
	for trial := 0; trial < 50; trial++ {
		p, err := r.Sample(0, 15, rng)
		if err != nil {
			t.Fatal(err)
		}
		if p.Hops() > budget {
			t.Fatalf("hop budget violated: %d > %d", p.Hops(), budget)
		}
	}
	dist, err := r.Distribution(0, 15)
	if err != nil {
		t.Fatal(err)
	}
	for _, wp := range dist {
		if wp.Path.Hops() > budget {
			t.Fatalf("distribution violates budget: %d", wp.Path.Hops())
		}
	}
}

func TestHopConstrainedInfeasibleBudget(t *testing.T) {
	g := gen.Ring(10) // distance 5 between antipodes
	r, err := NewHopConstrained(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(9, 9))
	if _, err := r.Sample(0, 5, rng); err == nil {
		t.Fatal("budget below hop distance should fail")
	}
	// Within budget it must work.
	if _, err := r.Sample(0, 3, rng); err != nil {
		t.Fatal(err)
	}
}

func TestHopConstrainedTightBudgetIsShortestPath(t *testing.T) {
	g := gen.Grid(3, 3)
	r, err := NewHopConstrained(g, 4) // exactly the 0-8 distance
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(10, 10))
	for trial := 0; trial < 20; trial++ {
		p, err := r.Sample(0, 8, rng)
		if err != nil {
			t.Fatal(err)
		}
		if p.Hops() != 4 {
			t.Fatalf("tight budget must give shortest paths, got %d hops", p.Hops())
		}
	}
}

func TestRandomDetourBasics(t *testing.T) {
	g := gen.Grid(3, 3)
	r, err := NewRandomDetour(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(11, 11))
	checkRouterBasics(t, r, [][2]int{{0, 8}, {2, 6}}, rng)
	// With no budget, every vertex is a feasible intermediate: the
	// distribution support should be rich (more than the SPF single path).
	dist, err := r.Distribution(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(dist) < 2 {
		t.Fatalf("detour distribution support=%d, want >= 2", len(dist))
	}
}

func TestFractionalRoutingRoutesDemand(t *testing.T) {
	g := gen.Hypercube(3)
	r, err := NewValiant(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := demand.New()
	d.Set(0, 7, 2)
	d.Set(1, 6, 1)
	routing, err := FractionalRouting(r, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := routing.ValidateRoutes(g, d, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestSampleMany(t *testing.T) {
	g := gen.Hypercube(3)
	r, err := NewValiant(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(12, 12))
	paths, err := SampleMany(r, 0, 7, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 5 {
		t.Fatalf("got %d paths", len(paths))
	}
	for _, p := range paths {
		if p.Src != 0 || p.Dst != 7 {
			t.Fatalf("bad endpoints: %+v", p)
		}
	}
}
