package mcf

import (
	"context"
	"math"
	"testing"

	"sparseroute/internal/demand"
)

func TestMWUProgressCallback(t *testing.T) {
	g, cand := twoPathGraph()
	d := demand.SinglePair(0, 3, 2)
	type sample struct {
		round int
		cong  float64
	}
	var samples []sample
	opt := &Options{
		Iterations:    100,
		ProgressEvery: 10,
		Progress:      func(round int, cong float64) { samples = append(samples, sample{round, cong}) },
	}
	r, err := MinCongestionOnPathsCtx(context.Background(), g, cand, d, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Rounds 10..90 plus the final 100: strictly increasing, final == Iterations.
	if len(samples) != 10 {
		t.Fatalf("got %d progress samples, want 10: %+v", len(samples), samples)
	}
	for i, s := range samples {
		if want := (i + 1) * 10; s.round != want {
			t.Fatalf("sample %d: round %d, want %d", i, s.round, want)
		}
		if s.cong <= 0 || math.IsNaN(s.cong) {
			t.Fatalf("sample %d: congestion %v", i, s.cong)
		}
	}
	// The final estimate is exactly the returned (averaged) routing's
	// congestion — cum/iterations IS that routing's edge load.
	final := samples[len(samples)-1]
	if got := r.MaxCongestion(g); math.Abs(final.cong-got) > 1e-9 {
		t.Fatalf("final progress congestion %v != routing congestion %v", final.cong, got)
	}
}

func TestMWUProgressDefaultStride(t *testing.T) {
	g, cand := twoPathGraph()
	d := demand.SinglePair(0, 3, 1)
	calls := 0
	last := 0
	_, err := MinCongestionOnPathsCtx(context.Background(), g, cand, d, &Options{
		Iterations: 48,
		Progress:   func(round int, _ float64) { calls++; last = round },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Default stride 16: rounds 16, 32, then the final 48.
	if calls != 3 || last != 48 {
		t.Fatalf("calls=%d last=%d, want 3 calls ending at 48", calls, last)
	}
}

func TestApproxOptProgressCallback(t *testing.T) {
	g, _ := twoPathGraph()
	d := demand.SinglePair(0, 3, 2)
	var rounds []int
	var finalCong float64
	r, err := ApproxOptCongestionCtx(context.Background(), g, d, &Options{
		Iterations:    64,
		ProgressEvery: 32,
		Progress:      func(round int, cong float64) { rounds = append(rounds, round); finalCong = cong },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 2 || rounds[0] != 32 || rounds[1] != 64 {
		t.Fatalf("rounds = %v, want [32 64]", rounds)
	}
	if got := r.MaxCongestion(g); math.Abs(finalCong-got) > 1e-9 {
		t.Fatalf("final progress congestion %v != routing congestion %v", finalCong, got)
	}
}
