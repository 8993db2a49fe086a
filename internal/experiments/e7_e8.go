package experiments

import (
	"fmt"

	"sparseroute/internal/core"
	"sparseroute/internal/demand"
	"sparseroute/internal/dynproc"
	"sparseroute/internal/graph/gen"
	"sparseroute/internal/oblivious"
	"sparseroute/internal/stats"
	"sparseroute/internal/temodel"
)

// e7DynamicProcess runs the proof's deletion process (Section 5.3)
// empirically: for each sparsity s, sample s Valiant paths per pair of a
// random hypercube permutation, route everything at once, delete through
// overcongested edges in fixed order, and record the surviving fraction.
// Expected shape: the surviving fraction (and the weak-routing success rate,
// fraction >= 1/2) increases sharply with s — the concentration the Main
// Lemma proves.
func e7DynamicProcess(cfg Config) (*stats.Table, error) {
	dim := 6
	pairs := 24
	trials := 8
	if cfg.Quick {
		dim, pairs, trials = 5, 12, 4
	}
	g := gen.Hypercube(dim)
	router, err := oblivious.NewValiant(g, dim)
	if err != nil {
		return nil, err
	}
	tbl := &stats.Table{
		Title:  fmt.Sprintf("E7 (Section 5.3): deletion process on the %d-cube, threshold 1.0 and 2.0", dim),
		Header: []string{"s", "thr", "mean surviving frac", "min frac", "weak-routing success"},
		Notes: []string{
			"expected shape: surviving fraction -> 1 and success rate -> 100% as s grows",
		},
	}
	for _, s := range []int{1, 2, 4, 8} {
		for _, thr := range []float64{1.0, 2.0} {
			var fracs []float64
			successes := 0
			for t := 0; t < trials; t++ {
				rng := cfg.rng(uint64(700 + 100*s + int(thr*10) + t))
				d := demand.RandomPermutation(g.NumVertices(), pairs, rng)
				ps, err := core.RSample(router, d.Support(), s, cfg.Seed+uint64(7000+100*s+t))
				if err != nil {
					return nil, err
				}
				res, err := dynproc.Run(ps, d, thr)
				if err != nil {
					return nil, err
				}
				fracs = append(fracs, res.RoutedFraction)
				if res.RoutedFraction >= 0.5 {
					successes++
				}
			}
			tbl.AddRow(fmt.Sprint(s), stats.F(thr), stats.F(stats.Mean(fracs)),
				stats.F(stats.Min(fracs)),
				fmt.Sprintf("%d/%d", successes, trials))
		}
	}
	return tbl, nil
}

// e8Traffic reproduces the SMORE-style comparison ([22], Section 1.1): on a
// synthetic WAN with a gravity demand sequence, semi-oblivious routing with
// s=4 paths sampled from Räcke tracks the per-epoch optimum and beats the
// static baselines; the ablation rows show that sampling from a worse base
// distribution (KSP, uniform detour) costs real congestion. Expected shape:
// semiobl-raecke-4 mean ratio ~1 and smallest among non-OPT methods.
func e8Traffic(cfg Config) (*stats.Table, error) {
	n, extra := 24, 36
	epochs := 5
	pairs := 20
	if cfg.Quick {
		n, extra, epochs, pairs = 16, 24, 3, 10
	}
	g := gen.SyntheticWAN(n, extra, cfg.rng(81))
	demands := temodel.GravitySequence(g, epochs, float64(n), pairs, cfg.rng(82))
	pairSet := map[demand.Pair]bool{}
	for _, d := range demands {
		for _, p := range d.Support() {
			pairSet[p] = true
		}
	}
	var allPairs []demand.Pair
	for p := range pairSet {
		allPairs = append(allPairs, p)
	}

	raecke, err := oblivious.NewRaecke(g, &oblivious.RaeckeOptions{NumTrees: 10}, cfg.rng(83))
	if err != nil {
		return nil, err
	}
	ksp := oblivious.NewKSP(g, 4, nil)
	detour, err := oblivious.NewRandomDetour(g)
	if err != nil {
		return nil, err
	}
	sampleSystem := func(r oblivious.Router, salt uint64) (*core.PathSystem, error) {
		return core.RSample(r, allPairs, 4, cfg.Seed+salt)
	}
	psRaecke, err := sampleSystem(raecke, 801)
	if err != nil {
		return nil, err
	}
	psKSP, err := sampleSystem(ksp, 802)
	if err != nil {
		return nil, err
	}
	psDetour, err := sampleSystem(detour, 803)
	if err != nil {
		return nil, err
	}
	methods := []temodel.Method{
		&temodel.SemiOblivious{Label: "semiobl-raecke-4", System: psRaecke},
		&temodel.SemiOblivious{Label: "semiobl-ksp-4", System: psKSP},
		&temodel.SemiOblivious{Label: "semiobl-detour-4", System: psDetour},
		&temodel.Static{Label: "static-raecke", Router: raecke},
		&temodel.Static{Label: "static-ksp-ecmp", Router: ksp},
		&temodel.Static{Label: "spf", Router: oblivious.NewSPF(g)},
		&temodel.Optimal{Label: "opt", G: g},
	}
	rr, err := temodel.Run(g, methods, demands)
	if err != nil {
		return nil, err
	}
	sums := rr.Summarize("opt")
	tbl := &stats.Table{
		Title:  fmt.Sprintf("E8 (SMORE [22]): synthetic WAN n=%d, %d epochs of gravity traffic", n, epochs),
		Header: []string{"method", "mean cong", "max cong", "mean ratio vs OPT", "max ratio"},
		Notes: []string{
			"expected shape: semiobl-raecke-4 ~= OPT, beats static baselines; ablation samplers (ksp/detour) cost congestion",
		},
	}
	for _, name := range rr.MethodNames {
		s := sums[name]
		tbl.AddRow(name, stats.F(s.MeanCongestion), stats.F(s.MaxCongestion),
			stats.F(s.MeanRatio), stats.F(s.MaxRatio))
	}
	return tbl, nil
}
