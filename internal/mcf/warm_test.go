package mcf

import (
	"context"
	"testing"

	"sparseroute/internal/demand"
)

// TestWarmStartIdenticalDemandMatchesCold pins the warm seam's core promise:
// seeded with the cold solution of the SAME matrix, a warm solve with a
// quarter of the iterations lands at (essentially) the cold congestion.
func TestWarmStartIdenticalDemandMatchesCold(t *testing.T) {
	g, cand := twoPathGraph()
	d := demand.SinglePair(0, 3, 2)
	cold, err := MinCongestionOnPathsCtx(context.Background(), g, cand, d, &Options{Iterations: 256})
	if err != nil {
		t.Fatal(err)
	}
	prior := make(map[demand.Pair]map[string]float64)
	for p, wps := range cold {
		m := make(map[string]float64)
		for _, wp := range wps {
			m[wp.Path.Key()] += wp.Weight
		}
		prior[p] = m
	}
	warm, err := MinCongestionOnPathsCtx(context.Background(), g, cand, d, &Options{
		Iterations: 64,
		Warm:       &WarmStart{Weights: prior},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.ValidateRoutes(g, d, 1e-7); err != nil {
		t.Fatal(err)
	}
	cc, wc := cold.MaxCongestion(g), warm.MaxCongestion(g)
	if wc > cc*1.01 {
		t.Fatalf("warm congestion %v, cold %v: same matrix should not degrade", wc, cc)
	}
}

// TestWarmStartStaleKeysStartCold: prior entries whose path keys no longer
// name any candidate must be ignored, not crash or starve the pair.
func TestWarmStartStaleKeysStartCold(t *testing.T) {
	g, cand := twoPathGraph()
	d := demand.SinglePair(0, 3, 2)
	prior := map[demand.Pair]map[string]float64{
		demand.MakePair(0, 3): {"no-such-path": 1.0},
	}
	r, err := MinCongestionOnPathsCtx(context.Background(), g, cand, d, &Options{
		Iterations: 128,
		Warm:       &WarmStart{Weights: prior},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ValidateRoutes(g, d, 1e-7); err != nil {
		t.Fatal(err)
	}
	if c := r.MaxCongestion(g); c > 1.1 {
		t.Fatalf("congestion %v with stale prior, want near-even split (~1)", c)
	}
}

// TestBaseLoadsSteerMWU: with one of the two paths already carrying a heavy
// fixed background, the MWU must route most of the demand over the other.
func TestBaseLoadsSteerMWU(t *testing.T) {
	g, cand := twoPathGraph()
	d := demand.SinglePair(0, 3, 1)
	base := make([]float64, g.NumEdges())
	base[cand[demand.MakePair(0, 3)][0].EdgeIDs[0]] = 0.9 // first path's first edge
	r, err := MinCongestionOnPathsCtx(context.Background(), g, cand, d, &Options{Iterations: 256, BaseLoads: base})
	if err != nil {
		t.Fatal(err)
	}
	var onLoaded float64
	for _, wp := range r[demand.MakePair(0, 3)] {
		if wp.Path.EdgeIDs[0] == cand[demand.MakePair(0, 3)][0].EdgeIDs[0] {
			onLoaded += wp.Weight
		}
	}
	// Optimum puts 0.05 on the loaded path (balancing 0.9+x = 1-x); allow
	// MWU slack but require the bulk to have moved off it.
	if onLoaded > 0.2 {
		t.Fatalf("%.3f of the demand stayed on the backgrounded path, want ~0.05", onLoaded)
	}
}

// TestApproxOptDeterministic pins that ApproxOptCongestionCtx iterates the
// demand in a fixed order: two runs on the same inputs must produce
// bit-identical routings (map-order iteration here once caused run-to-run
// wobble in downstream gap computations).
func TestApproxOptDeterministic(t *testing.T) {
	g, _ := twoPathGraph()
	d := demand.New()
	d.Set(0, 3, 2)
	d.Set(1, 2, 1)
	d.Set(0, 2, 0.5)
	a, err := ApproxOptCongestionCtx(context.Background(), g, d, &Options{Iterations: 64})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ApproxOptCongestionCtx(context.Background(), g, d, &Options{Iterations: 64})
	if err != nil {
		t.Fatal(err)
	}
	for p, wps := range a {
		if len(b[p]) != len(wps) {
			t.Fatalf("pair %v: %d paths vs %d", p, len(wps), len(b[p]))
		}
		for i, wp := range wps {
			if b[p][i].Weight != wp.Weight || b[p][i].Path.Key() != wp.Path.Key() {
				t.Fatalf("pair %v path %d differs between identical runs", p, i)
			}
		}
	}
}
