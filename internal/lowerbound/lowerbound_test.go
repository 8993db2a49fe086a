package lowerbound

import (
	"testing"

	"sparseroute/internal/core"
	"sparseroute/internal/demand"
	"sparseroute/internal/graph"
	"sparseroute/internal/graph/gen"
)

func TestBipartiteMatchPerfect(t *testing.T) {
	// K_{3,3}: perfect matching of size 3.
	adj := [][]int{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}}
	m := bipartiteMatch(3, 3, adj)
	used := map[int]bool{}
	for l, r := range m {
		if r < 0 {
			t.Fatalf("left %d unmatched", l)
		}
		if used[r] {
			t.Fatalf("right %d matched twice", r)
		}
		used[r] = true
	}
}

func TestBipartiteMatchConstrained(t *testing.T) {
	// Left 0 and 1 both only like right 0: matching size 1 (+ left 2 -> 1).
	adj := [][]int{{0}, {0}, {1}}
	m := bipartiteMatch(3, 2, adj)
	size := 0
	for _, r := range m {
		if r >= 0 {
			size++
		}
	}
	if size != 2 {
		t.Fatalf("matching size=%d, want 2", size)
	}
}

func TestBipartiteMatchEmpty(t *testing.T) {
	m := bipartiteMatch(2, 2, [][]int{nil, nil})
	for _, r := range m {
		if r != -1 {
			t.Fatal("empty graph should have empty matching")
		}
	}
}

// singleMidSystem builds a path system on B_{k,p} that routes EVERY leaf
// pair through middle vertex index 0 — the worst possible 1-sparse system.
func singleMidSystem(t *testing.T, ds gen.DoubleStar) *core.PathSystem {
	t.Helper()
	ps := core.NewPathSystem(ds.G)
	for _, u := range ds.LeftLeaves {
		for _, v := range ds.RightLeaves {
			p, err := graph.PathFromVertices(ds.G, []int{u, ds.LeftCenter, ds.Middle[0], ds.RightCenter, v})
			if err != nil {
				t.Fatal(err)
			}
			if err := ps.AddPath(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ps
}

func TestFindAdversarySingleMiddle(t *testing.T) {
	ds := gen.NewDoubleStar(4, 6)
	ps := singleMidSystem(t, ds)
	adv, err := FindAdversary(ds, ps, 1)
	if err != nil {
		t.Fatal(err)
	}
	// All pairs use mid 0, so the best subset is {mid0} with a perfect
	// matching of size p=6: forced congestion 6, OPT ceil(6/4)=2 => ratio 3.
	if adv.MatchingSize != 6 {
		t.Fatalf("matching=%d, want 6", adv.MatchingSize)
	}
	if adv.ForcedCongestion != 6 {
		t.Fatalf("forced=%v, want 6", adv.ForcedCongestion)
	}
	if adv.RatioLowerBound != 3 {
		t.Fatalf("ratio=%v, want 3", adv.RatioLowerBound)
	}
	if !adv.Demand.IsPermutation() {
		t.Fatal("adversarial demand must be a permutation")
	}
}

func TestAdversaryCertifiedBySemiObliviousCongestion(t *testing.T) {
	// The semi-oblivious routing really cannot do better than the forced
	// congestion: adapt and measure.
	ds := gen.NewDoubleStar(3, 5)
	ps := singleMidSystem(t, ds)
	adv, err := FindAdversary(ds, ps, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ps.Adapt(adv.Demand, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c := r.MaxCongestion(ds.G); c < adv.ForcedCongestion-1e-6 {
		t.Fatalf("adapted congestion %v below forced bound %v", c, adv.ForcedCongestion)
	}
}

func TestOptimalRoutingAchievesOptBound(t *testing.T) {
	ds := gen.NewDoubleStar(3, 5)
	ps := singleMidSystem(t, ds)
	adv, err := FindAdversary(ds, ps, 1)
	if err != nil {
		t.Fatal(err)
	}
	optPS, d, err := optimalRouting(ds, adv)
	if err != nil {
		t.Fatal(err)
	}
	r, err := optPS.Adapt(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c := r.MaxCongestion(ds.G); c > adv.OptCongestion+1e-6 {
		t.Fatalf("offline routing congestion %v exceeds the claimed OPT %v", c, adv.OptCongestion)
	}
}

func TestFindAdversaryDiverseSystemWeakerBound(t *testing.T) {
	// A system that spreads pairs over the k middle vertices round-robin
	// should admit only a weaker adversary than the single-middle system.
	ds := gen.NewDoubleStar(4, 8)
	spread := core.NewPathSystem(ds.G)
	i := 0
	for _, u := range ds.LeftLeaves {
		for _, v := range ds.RightLeaves {
			mid := ds.Middle[i%4]
			i++
			p, err := graph.PathFromVertices(ds.G, []int{u, ds.LeftCenter, mid, ds.RightCenter, v})
			if err != nil {
				t.Fatal(err)
			}
			if err := spread.AddPath(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	advSpread, err := FindAdversary(ds, spread, 1)
	if err != nil {
		t.Fatal(err)
	}
	concentrated := singleMidSystem(t, ds)
	advConc, err := FindAdversary(ds, concentrated, 1)
	if err != nil {
		t.Fatal(err)
	}
	if advSpread.RatioLowerBound > advConc.RatioLowerBound {
		t.Fatalf("spread system should be harder to attack: %v vs %v",
			advSpread.RatioLowerBound, advConc.RatioLowerBound)
	}
}

func TestFindAdversaryValidation(t *testing.T) {
	ds := gen.NewDoubleStar(2, 3)
	ps := singleMidSystem(t, ds)
	if _, err := FindAdversary(ds, ps, 0); err == nil {
		t.Fatal("subset size 0 should be rejected")
	}
	if _, err := FindAdversary(ds, ps, 3); err == nil {
		t.Fatal("subset size > k should be rejected")
	}
	empty := core.NewPathSystem(ds.G)
	if _, err := FindAdversary(ds, empty, 1); err == nil {
		t.Fatal("empty path system should be rejected")
	}
}

func TestMiddleSetRejectsNonGadgetPaths(t *testing.T) {
	// A path avoiding the middle (impossible in B_{k,p} between leaves of
	// different stars but possible for same-side pairs) must be rejected
	// when presented as a cross pair. Build a same-side path and smuggle it
	// in under a cross-pair system missing paths.
	ds := gen.NewDoubleStar(2, 2)
	ps := core.NewPathSystem(ds.G)
	// Only one cross pair covered: others missing -> error.
	p, err := graph.PathFromVertices(ds.G, []int{ds.LeftLeaves[0], ds.LeftCenter, ds.Middle[0], ds.RightCenter, ds.RightLeaves[0]})
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.AddPath(p); err != nil {
		t.Fatal(err)
	}
	if _, err := FindAdversary(ds, ps, 1); err == nil {
		t.Fatal("missing pairs should surface as an error")
	}
	d := demand.SinglePair(ds.LeftLeaves[0], ds.RightLeaves[0], 1)
	_ = d
}
