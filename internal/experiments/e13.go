package experiments

import (
	"fmt"

	"sparseroute/internal/adversary"
	"sparseroute/internal/core"
	"sparseroute/internal/stats"
)

// e13Adversary stress-tests the "competitive on ALL demands" claim of
// Theorem 5.3 with an adaptive adversary: a hill-climbing search over
// permutation demands maximizing the competitive ratio of a fixed sampled
// system. Expected shape: at very low sparsity the adversary gains real
// ground over random demands (the system has exploitable gaps), while at
// s >= log n the gain shrinks and the worst found ratio stays small — the
// union-bound-over-all-demands guarantee becoming visible empirically.
func e13Adversary(cfg Config) (*stats.Table, error) {
	dim := 5
	steps, restarts := 30, 3
	optIters := 200
	sValues := []int{1, 2, 4, 6}
	if cfg.Quick {
		dim, steps, restarts, optIters = 4, 10, 2, 120
		sValues = []int{1, 4}
	}
	inst, err := hypercubeInstance(dim)
	if err != nil {
		return nil, err
	}
	n := inst.g.NumVertices()
	tbl := &stats.Table{
		Title:  fmt.Sprintf("E13: adaptive adversary vs sampled systems on the %d-cube (%d-step hill climb)", dim, steps),
		Header: []string{"s", "random-start ratio", "worst found ratio", "adversary gain", "evaluations"},
		Notes: []string{
			"expected shape: worst found ratio falls with s; adversary gain shrinks as the sample densifies",
		},
	}
	for si, s := range sValues {
		ps, err := core.RSample(inst.router, core.AllPairs(n), s, cfg.Seed+uint64(1300+si))
		if err != nil {
			return nil, err
		}
		res, err := adversary.Search(ps, &adversary.Options{
			Pairs:    n / 4,
			Steps:    steps,
			Restarts: restarts,
			OptIters: optIters,
		}, cfg.rng(uint64(1310+si)))
		if err != nil {
			return nil, err
		}
		gain := 0.0
		if res.InitialRatio > 0 {
			gain = res.Ratio / res.InitialRatio
		}
		tbl.AddRow(fmt.Sprint(s), stats.F(res.InitialRatio), stats.F(res.Ratio),
			stats.F(gain), fmt.Sprint(res.Evaluations))
	}
	return tbl, nil
}
