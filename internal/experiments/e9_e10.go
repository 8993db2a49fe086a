package experiments

import (
	"fmt"

	"sparseroute/internal/core"
	"sparseroute/internal/demand"
	"sparseroute/internal/dynproc"
	"sparseroute/internal/graph/gen"
	"sparseroute/internal/oblivious"
	"sparseroute/internal/prob"
	"sparseroute/internal/stats"
)

// e9Ablation measures the design choices DESIGN.md calls out:
// (a) the Räcke mixture size (number of FRT trees) — more trees improve the
// base oblivious routing and hence the sample, with diminishing returns;
// (b) the base distribution the candidates are sampled from — Räcke vs
// electrical flow vs KSP vs uniform detour — at fixed sparsity s=4.
// Expected shape: ratios fall with tree count then flatten; Räcke and
// electrical samplers beat KSP/detour.
func e9Ablation(cfg Config) (*stats.Table, error) {
	side := 6
	pairs := 12
	trials := 3
	optIters := 300
	if cfg.Quick {
		side, pairs, trials, optIters = 5, 8, 2, 150
	}
	g := gen.Grid(side, side)
	tbl := &stats.Table{
		Title:  fmt.Sprintf("E9: design ablations on the %dx%d grid (s=4, permutation demands)", side, side),
		Header: []string{"ablation", "variant", "mean ratio vs OPT", "max ratio"},
		Notes: []string{
			"expected shape: more trees help then flatten; raecke/electrical samplers beat ksp/detour",
		},
	}
	measure := func(router oblivious.Router, salt uint64) (mean, max float64, err error) {
		rng := cfg.rng(salt)
		for t := 0; t < trials; t++ {
			d := demand.RandomPermutation(g.NumVertices(), pairs, rng)
			ps, err := core.RSample(router, d.Support(), 4, cfg.Seed+salt+uint64(t)*977)
			if err != nil {
				return 0, 0, err
			}
			semi, err := ps.AdaptCongestion(d, nil)
			if err != nil {
				return 0, 0, err
			}
			opt, err := approxOpt(g, d, optIters)
			if err != nil {
				return 0, 0, err
			}
			r := semi / opt
			mean += r / float64(trials)
			if r > max {
				max = r
			}
		}
		return mean, max, nil
	}
	// (a) Tree count.
	for _, trees := range []int{1, 2, 4, 8, 16} {
		router, err := oblivious.NewRaecke(g, &oblivious.RaeckeOptions{NumTrees: trees}, cfg.rng(uint64(900+trees)))
		if err != nil {
			return nil, err
		}
		mean, max, err := measure(router, uint64(910+trees))
		if err != nil {
			return nil, err
		}
		tbl.AddRow("raecke-trees", fmt.Sprintf("T=%d", trees), stats.F(mean), stats.F(max))
	}
	// (b) Sampler source.
	raecke, err := oblivious.NewRaecke(g, nil, cfg.rng(930))
	if err != nil {
		return nil, err
	}
	electrical, err := oblivious.NewElectrical(g)
	if err != nil {
		return nil, err
	}
	detour, err := oblivious.NewRandomDetour(g)
	if err != nil {
		return nil, err
	}
	sources := []struct {
		name   string
		router oblivious.Router
	}{
		{"raecke", raecke},
		{"electrical", electrical},
		{"ksp-4", oblivious.NewKSP(g, 4, nil)},
		{"detour", detour},
	}
	for i, src := range sources {
		mean, max, err := measure(src.router, uint64(940+i))
		if err != nil {
			return nil, err
		}
		tbl.AddRow("sampler-source", src.name, stats.F(mean), stats.F(max))
	}
	return tbl, nil
}

// e10Concentration quantifies the Main Lemma's concentration: for fixed
// sparsity and threshold, the empirical probability that the deletion
// process fails weak routing (routes < 1/2 of the demand) should decay as
// the demand grows — the exponential-in-|d| failure bound that powers the
// union bound — and the per-edge overcongestion rate should sit below the
// negative-association Chernoff bound (Lemma B.5). The bad-pattern count
// bound (Lemma 5.13) is printed alongside.
func e10Concentration(cfg Config) (*stats.Table, error) {
	dim := 6
	trials := 30
	s := 6
	threshold := 1.5
	if cfg.Quick {
		dim, trials = 5, 12
	}
	g := gen.Hypercube(dim)
	router, err := oblivious.NewValiant(g, dim)
	if err != nil {
		return nil, err
	}
	tbl := &stats.Table{
		Title: fmt.Sprintf("E10 (Main Lemma / Appendix B): failure decay on the %d-cube, s=%d, threshold=%.1f",
			dim, s, threshold),
		Header: []string{"|d| (pairs)", "fail rate", "mean frac", "edge-overcong rate", "chernoff/edge", "log #bad patterns"},
		Notes: []string{
			"expected shape: weak-routing failure rate stays low and surviving fraction degrades slowly as |d| grows",
			"chernoff/edge uses a mean-field per-edge mean (|d|*hops/2m); per-edge means vary by demand, so it is indicative, not a certified bound",
		},
	}
	sizes := []int{4, 8, 16, 24}
	if cfg.Quick {
		sizes = []int{4, 8, 12}
	}
	for si, pairs := range sizes {
		fails := 0
		var fracs []float64
		overEdges, totalEdges := 0, 0
		var muSum float64
		for t := 0; t < trials; t++ {
			rng := cfg.rng(uint64(1000 + 37*si + t))
			d := demand.RandomPermutation(g.NumVertices(), pairs, rng)
			ps, err := core.RSample(router, d.Support(), s, cfg.Seed+uint64(1300+71*si+t))
			if err != nil {
				return nil, err
			}
			res, err := dynproc.Run(ps, d, threshold)
			if err != nil {
				return nil, err
			}
			fracs = append(fracs, res.RoutedFraction)
			if res.RoutedFraction < 0.5 {
				fails++
			}
			overEdges += len(res.Overcongested)
			totalEdges += g.NumEdges()
			// Expected per-edge load of the all-at-once routing ~
			// |d| * E[path length] / m; use the Valiant expectation d/2
			// hops per path as mu proxy.
			muSum += float64(pairs) * float64(dim) / 2 / float64(g.NumEdges())
		}
		mu := muSum / float64(trials)
		// The edge load is (1/s)·(number of sampled paths crossing it) —
		// binary increments of 1/s, exactly the special-demand normalization
		// of Definition 5.5 — so the Chernoff bound applies to the path
		// count: P[load >= thr] = P[count >= s·thr] with mean s·mu.
		chern := prob.ChernoffAtLeast(float64(s)*mu, float64(s)*threshold)
		logBP, err := prob.LogBadPatternCount(g.NumEdges(), float64(pairs)/2, threshold)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(fmt.Sprint(pairs),
			fmt.Sprintf("%d/%d", fails, trials),
			stats.F(stats.Mean(fracs)),
			stats.F(float64(overEdges)/float64(totalEdges)),
			stats.F(chern),
			stats.F(logBP))
	}
	return tbl, nil
}
