package experiments

import (
	"fmt"

	"sparseroute/internal/core"
	"sparseroute/internal/demand"
	"sparseroute/internal/graph"
	"sparseroute/internal/graph/gen"
	"sparseroute/internal/oblivious"
	"sparseroute/internal/stats"
)

// e11Robustness reproduces the robustness argument of the SMORE deployment
// ([22], Section 1): a semi-oblivious system with diverse pre-installed
// candidates keeps serving traffic under link failures by shifting rates to
// the surviving candidates — no forwarding state changes — while
// single-path SPF must recompute and an oblivious routing loses whatever
// probability mass crossed the dead links. For each failure count f we kill
// f random non-cut edges and report: the fraction of pairs that still have
// a surviving candidate, and the congestion ratios of rate-shifted
// semi-oblivious routing vs fully recomputed SPF, both against the
// re-optimized OPT on the damaged network. Expected shape: coverage stays
// near 100% for s=4 at moderate f, and the semi-oblivious ratio degrades
// gracefully.
func e11Robustness(cfg Config) (*stats.Table, error) {
	n, extra := 24, 40
	pairs := 16
	s := 4
	failCounts := []int{0, 2, 4, 8}
	trials := 3
	optIters := 300
	if cfg.Quick {
		n, extra, pairs, trials, optIters = 16, 26, 10, 2, 150
		failCounts = []int{0, 2, 4}
	}
	g := gen.SyntheticWAN(n, extra, cfg.rng(1101))
	router, err := oblivious.NewRaecke(g, nil, cfg.rng(1102))
	if err != nil {
		return nil, err
	}
	d := demand.Gravity(g, float64(n), pairs, cfg.rng(1103))
	ps, err := core.RSample(router, d.Support(), s, cfg.Seed+1104)
	if err != nil {
		return nil, err
	}
	tbl := &stats.Table{
		Title:  fmt.Sprintf("E11 (SMORE robustness): WAN n=%d, s=%d Raecke candidates, random link failures", n, s),
		Header: []string{"failures", "pair coverage", "semiobl ratio", "spf ratio", "semiobl cong", "OPT"},
		Notes: []string{
			"expected shape: coverage ~1 and graceful ratio degradation for the semi-oblivious system",
			"ratios vs OPT recomputed on the damaged network; means over trials",
		},
	}
	for fi, f := range failCounts {
		var covSum, semiRatio, spfRatio, semiCong, optCong float64
		done := 0
		for trial := 0; trial < trials && done < trials; trial++ {
			rng := cfg.rng(uint64(1110 + 17*fi + trial))
			failed := sampleFailures(g, f, rng)
			if failed == nil {
				continue // could not keep the graph connected; skip draw
			}
			surviving := ps.WithoutEdges(failed)
			cov := coverage(surviving, d)
			covSum += cov
			if cov < 1 {
				// Route only the covered part (deployments would fall back
				// for dead pairs); ratios reflect the covered demand.
			}
			sub := d.Restrict(func(p demand.Pair) bool {
				return len(surviving.Paths(p.U, p.V)) > 0
			})
			if sub.SupportSize() == 0 {
				continue
			}
			semiR, err := surviving.Adapt(sub, nil)
			if err != nil {
				return nil, err
			}
			// Damaged network for OPT and SPF.
			damaged, _ := graph.RemoveEdges(g, failed)
			if !damaged.Connected() {
				continue
			}
			opt, err := approxOpt(damaged, sub, optIters)
			if err != nil {
				return nil, err
			}
			spfCong, err := oblivious.Congestion(oblivious.NewSPF(damaged), sub)
			if err != nil {
				return nil, err
			}
			semiCong += semiR.MaxCongestion(g)
			optCong += opt
			semiRatio += semiR.MaxCongestion(g) / opt
			spfRatio += spfCong / opt
			done++
		}
		if done == 0 {
			tbl.AddRow(fmt.Sprint(f), "-", "-", "-", "-", "-")
			continue
		}
		fd := float64(done)
		tbl.AddRow(fmt.Sprint(f),
			stats.F(covSum/fd),
			stats.F(semiRatio/fd),
			stats.F(spfRatio/fd),
			stats.F(semiCong/fd),
			stats.F(optCong/fd))
	}
	return tbl, nil
}

// sampleFailures picks f distinct edges whose removal keeps g connected, or
// nil if it fails to find such a set quickly.
func sampleFailures(g *graph.Graph, f int, rng interface{ IntN(int) int }) map[int]bool {
	if f == 0 {
		return map[int]bool{}
	}
	for attempt := 0; attempt < 50; attempt++ {
		failed := make(map[int]bool, f)
		for len(failed) < f {
			failed[rng.IntN(g.NumEdges())] = true
		}
		damaged, _ := graph.RemoveEdges(g, failed)
		if damaged.Connected() {
			return failed
		}
	}
	return nil
}

func coverage(ps *core.PathSystem, d *demand.Demand) float64 {
	sup := d.Support()
	if len(sup) == 0 {
		return 1
	}
	covered := 0
	for _, p := range sup {
		if len(ps.Paths(p.U, p.V)) > 0 {
			covered++
		}
	}
	return float64(covered) / float64(len(sup))
}
