package temodel

import (
	"math/rand/v2"
	"testing"

	"sparseroute/internal/core"
	"sparseroute/internal/demand"
	"sparseroute/internal/graph/gen"
	"sparseroute/internal/oblivious"
)

func TestGravitySequence(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	g := gen.Grid(4, 4)
	seq := GravitySequence(g, 5, 10, 8, rng)
	if len(seq) != 5 {
		t.Fatalf("epochs=%d", len(seq))
	}
	for _, d := range seq {
		if d.SupportSize() != 8 {
			t.Fatalf("pairs=%d", d.SupportSize())
		}
		if d.Size() <= 0 {
			t.Fatal("empty epoch demand")
		}
	}
}

func TestRunAndSummarize(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	g := gen.Grid(4, 4)
	demands := GravitySequence(g, 3, 6, 6, rng)

	// Pairs appearing across the epochs.
	pairSet := map[demand.Pair]bool{}
	for _, d := range demands {
		for _, p := range d.Support() {
			pairSet[p] = true
		}
	}
	var pairs []demand.Pair
	for p := range pairSet {
		pairs = append(pairs, p)
	}

	raecke, err := oblivious.NewRaecke(g, &oblivious.RaeckeOptions{NumTrees: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := core.RSample(raecke, pairs, 4, 77)
	if err != nil {
		t.Fatal(err)
	}
	methods := []Method{
		&SemiOblivious{Label: "semiobl-4", System: ps},
		&Static{Label: "spf", Router: oblivious.NewSPF(g)},
		&Static{Label: "raecke", Router: raecke},
		&Optimal{Label: "opt", G: g},
	}
	rr, err := Run(g, methods, demands)
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Epochs) != 3 {
		t.Fatalf("epochs=%d", len(rr.Epochs))
	}
	sums := rr.Summarize("opt")
	for _, name := range []string{"semiobl-4", "spf", "raecke", "opt"} {
		s, ok := sums[name]
		if !ok {
			t.Fatalf("missing summary for %s", name)
		}
		if s.MeanCongestion <= 0 {
			t.Fatalf("%s mean congestion %v", name, s.MeanCongestion)
		}
	}
	// No method can beat the optimum by a real margin (MWU opt is
	// near-optimal; allow small slack).
	for name, s := range sums {
		if name == "opt" {
			continue
		}
		if s.MeanRatio < 0.9 {
			t.Fatalf("%s mean ratio %v implausibly below optimal", name, s.MeanRatio)
		}
	}
	// The adaptive semi-oblivious method should do at least as well as the
	// fully static Raecke routing it was sampled from.
	if sums["semiobl-4"].MeanRatio > sums["raecke"].MeanRatio*1.2+0.2 {
		t.Fatalf("semi-oblivious (%v) should track or beat static raecke (%v)",
			sums["semiobl-4"].MeanRatio, sums["raecke"].MeanRatio)
	}
}

func TestRunSurfacesMethodErrors(t *testing.T) {
	g := gen.Grid(3, 3)
	empty := core.NewPathSystem(g)
	methods := []Method{&SemiOblivious{Label: "broken", System: empty}}
	d := demand.SinglePair(0, 8, 1)
	if _, err := Run(g, methods, []*demand.Demand{d}); err == nil {
		t.Fatal("uncovered semi-oblivious system should error")
	}
}
