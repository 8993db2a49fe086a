package experiments

import (
	"fmt"

	"sparseroute/internal/core"
	"sparseroute/internal/demand"
	"sparseroute/internal/graph/gen"
	"sparseroute/internal/lowerbound"
	"sparseroute/internal/schedule"
	"sparseroute/internal/stats"
)

// e5CompletionTime reproduces Lemmas 2.8/2.9: sampling from hop-constrained
// oblivious routings at geometric hop scales yields a path system that can
// be adapted for the completion-time objective (congestion + dilation)
// rather than congestion alone. Expected shape: completion-time adaptation
// achieves smaller cong+dil (and smaller simulated makespan) than
// congestion-only adaptation whenever the latter picks long detours.
func e5CompletionTime(cfg Config) (*stats.Table, error) {
	side := 6
	pairs := 10
	R := 3
	if cfg.Quick {
		side, pairs, R = 4, 6, 2
	}
	g := gen.Grid(side, side)
	rng := cfg.rng(51)
	d := demand.RandomPermutation(g.NumVertices(), pairs, rng)
	ps, err := core.CompletionTimeSample(g, d.Support(), R, cfg.Seed+500)
	if err != nil {
		return nil, err
	}
	tbl := &stats.Table{
		Title:  fmt.Sprintf("E5 (Lemmas 2.8/2.9): %dx%d grid, hop-scale union sample (R=%d/scale)", side, side, R),
		Header: []string{"adaptation", "congestion", "dilation", "cong+dil", "makespan(sim)"},
		Notes: []string{
			"expected shape: completion-time adaptation <= congestion-only on cong+dil; makespan tracks C+D",
		},
	}
	// Congestion-only adaptation over the full union.
	congOnly, err := ps.Adapt(d, nil)
	if err != nil {
		return nil, err
	}
	// Completion-time adaptation.
	ct, err := ps.AdaptCompletionTime(d, nil)
	if err != nil {
		return nil, err
	}
	for _, row := range []struct {
		name string
		cong float64
		dil  int
	}{
		{"congestion-only", congOnly.MaxCongestion(g), congOnly.Dilation()},
		{"completion-time", ct.Congestion, ct.Dilation},
	} {
		tbl.AddRow(row.name, stats.F(row.cong), fmt.Sprint(row.dil),
			stats.F(row.cong+float64(row.dil)), "-")
	}
	// Packet-level makespans for the integral versions.
	intCong, err := ps.AdaptIntegral(d, nil, cfg.rng(52))
	if err != nil {
		return nil, err
	}
	res, err := schedule.SimulateBest(g, intCong, int(intCong.MaxCongestion(g))+1, 5, cfg.rng(53))
	if err != nil {
		return nil, err
	}
	tbl.AddRow("integral congestion-only", stats.F(res.Congestion), fmt.Sprint(res.Dilation),
		stats.F(res.Congestion+float64(res.Dilation)), fmt.Sprint(res.Makespan))
	intCT, err := ps.RestrictHops(ct.Dilation).AdaptIntegral(d, nil, cfg.rng(54))
	if err == nil {
		res2, err := schedule.SimulateBest(g, intCT, int(intCT.MaxCongestion(g))+1, 5, cfg.rng(55))
		if err != nil {
			return nil, err
		}
		tbl.AddRow("integral completion-time", stats.F(res2.Congestion), fmt.Sprint(res2.Dilation),
			stats.F(res2.Congestion+float64(res2.Dilation)), fmt.Sprint(res2.Makespan))
	}
	return tbl, nil
}

// e6LowerBound reproduces the Section 8 lower bound: on B_{k,p}, every
// s-sparse sampled system admits an adversarial permutation demand forcing
// ratio >= |M|/(s·ceil(|M|/k)). Expected shape: the certified ratio grows
// with p at fixed (k, s) until it saturates near k/s, and the adapted
// congestion confirms the bound (measured >= certified).
func e6LowerBound(cfg Config) (*stats.Table, error) {
	type cell struct{ k, p, s int }
	var cells []cell
	if cfg.Quick {
		cells = []cell{{3, 6, 1}, {3, 12, 1}, {4, 8, 2}}
	} else {
		cells = []cell{{3, 8, 1}, {3, 16, 1}, {3, 32, 1}, {4, 8, 2}, {4, 16, 2}, {4, 32, 2}, {5, 16, 2}}
	}
	tbl := &stats.Table{
		Title:  "E6 (Section 8): adversarial demands on the double-star B_{k,p}",
		Header: []string{"k", "p", "s", "|M|", "forced cong", "OPT", "certified ratio", "measured ratio"},
		Notes: []string{
			"expected shape: certified ratio grows with p at fixed (k,s), saturating near k/s",
		},
	}
	attack := func(ds gen.DoubleStar, s int, salt uint64) (*lowerbound.Adversary, float64, error) {
		router, err := newGadgetSampler(ds)
		if err != nil {
			return nil, 0, err
		}
		var pairs []demand.Pair
		for _, u := range ds.LeftLeaves {
			for _, v := range ds.RightLeaves {
				pairs = append(pairs, demand.MakePair(u, v))
			}
		}
		ps, err := core.RSample(router, pairs, s, cfg.Seed+salt)
		if err != nil {
			return nil, 0, err
		}
		adv, err := lowerbound.FindAdversary(ds, ps, s)
		if err != nil {
			return nil, 0, err
		}
		measured, err := ps.AdaptCongestion(adv.Demand, nil)
		if err != nil {
			return nil, 0, err
		}
		return adv, measured, nil
	}
	for ci, c := range cells {
		ds := gen.NewDoubleStar(c.k, c.p)
		adv, measured, err := attack(ds, c.s, uint64(600+ci))
		if err != nil {
			return nil, err
		}
		tbl.AddRow(fmt.Sprint(c.k), fmt.Sprint(c.p), fmt.Sprint(c.s),
			fmt.Sprint(adv.MatchingSize), stats.F(adv.ForcedCongestion),
			stats.F(adv.OptCongestion), stats.F(adv.RatioLowerBound),
			stats.F(measured/adv.OptCongestion))
	}
	// Lemma 8.2's glued family: one graph containing B_{k,p} for every k,
	// so a single topology defeats every sparsity class — the adversary
	// just picks the gadget matching the system's sparsity.
	gluedP := 12
	maxK := 4
	if cfg.Quick {
		gluedP, maxK = 6, 3
	}
	_, gadgets := gen.GluedLowerBound(maxK, gluedP)
	for _, s := range []int{1, 2} {
		bestRatio := 0.0
		bestK := 0
		for gi, ds := range gadgets {
			if s > len(ds.Middle) {
				continue // subset size must be <= k
			}
			adv, _, err := attack(ds, s, uint64(650+10*s+gi))
			if err != nil {
				return nil, err
			}
			if adv.RatioLowerBound > bestRatio {
				bestRatio = adv.RatioLowerBound
				bestK = len(ds.Middle)
			}
		}
		tbl.AddRow(fmt.Sprintf("glued(k<=%d)", maxK), fmt.Sprint(gluedP), fmt.Sprint(s),
			"-", "-", "-", stats.F(bestRatio), fmt.Sprintf("worst gadget k=%d", bestK))
	}
	return tbl, nil
}
