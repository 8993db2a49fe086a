package experiments

import (
	"fmt"
	"math"

	"sparseroute/internal/graph/gen"
	"sparseroute/internal/stats"
)

// e1LogSparsity reproduces Theorem 2.3: on every benchmark graph, sampling
// R = ceil(log2 n) paths per pair from a competitive oblivious routing gives
// a semi-oblivious routing whose congestion on permutation (A-)demands stays
// within small factors of both the offline optimum and the base oblivious
// routing. Rows: one per topology; expected shape: ratio column O(polylog),
// ratio-vs-oblivious close to (or below) 1.
func e1LogSparsity(cfg Config) (*stats.Table, error) {
	dim := 6
	gridSide := 6
	expN, expDeg := 64, 4
	trials := 3
	optIters := 300
	if cfg.Quick {
		dim, gridSide, expN, trials, optIters = 5, 5, 32, 2, 150
	}
	var insts []instance
	hc, err := hypercubeInstance(dim)
	if err != nil {
		return nil, err
	}
	insts = append(insts, hc)
	gi, err := raeckeInstance(fmt.Sprintf("grid-%dx%d", gridSide, gridSide), gen.Grid(gridSide, gridSide), 10, cfg.rng(11))
	if err != nil {
		return nil, err
	}
	insts = append(insts, gi)
	ei, err := raeckeInstance(fmt.Sprintf("expander-n%d-d%d", expN, expDeg),
		gen.RandomRegular(expN, expDeg, cfg.rng(12)), 10, cfg.rng(13))
	if err != nil {
		return nil, err
	}
	insts = append(insts, ei)

	tbl := &stats.Table{
		Title:  "E1 (Theorem 2.3): R = ceil(log2 n) sampled paths, permutation demands",
		Header: []string{"graph", "n", "R", "cong(semi)", "OPT", "cong(obl)", "semi/OPT", "semi/obl"},
		Notes: []string{
			"expected shape: semi/OPT stays small (polylog), semi/obl <= ~1 (adaptation can only help)",
		},
	}
	for i, inst := range insts {
		n := inst.g.NumVertices()
		R := int(math.Ceil(math.Log2(float64(n))))
		pairs := n / 4
		semi, opt, obl, err := ratioStats(inst, R, pairs, trials, optIters, cfg, uint64(100+i))
		if err != nil {
			return nil, fmt.Errorf("E1 %s: %w", inst.name, err)
		}
		tbl.AddRow(inst.name, fmt.Sprint(n), fmt.Sprint(R),
			stats.F(semi), stats.F(opt), stats.F(obl),
			stats.F(semi/opt), stats.F(semi/obl))
	}
	return tbl, nil
}

// e2Tradeoff reproduces Theorem 2.5's sparsity-competitiveness trade-off
// ("each additional path yields a polynomial improvement"): competitiveness
// versus s on a fixed expander and hypercube. Expected shape: the ratio
// column falls steeply from s=1 and flattens near 1 — consistent with
// n^Θ(1/s) — and log2(ratio) decays roughly geometrically.
func e2Tradeoff(cfg Config) (*stats.Table, error) {
	dim := 6
	expN := 64
	trials := 3
	optIters := 300
	sValues := []int{1, 2, 3, 4, 6, 8}
	if cfg.Quick {
		dim, expN, trials, optIters = 5, 32, 2, 150
		sValues = []int{1, 2, 4, 8}
	}
	hc, err := hypercubeInstance(dim)
	if err != nil {
		return nil, err
	}
	exp, err := raeckeInstance(fmt.Sprintf("expander-n%d", expN),
		gen.RandomRegular(expN, 4, cfg.rng(21)), 10, cfg.rng(22))
	if err != nil {
		return nil, err
	}
	tbl := &stats.Table{
		Title:  "E2 (Theorem 2.5): competitiveness vs sparsity s",
		Header: []string{"graph", "s", "cong(semi)", "OPT", "ratio", "log2(ratio)"},
		Notes: []string{
			"expected shape: ratio decreases monotonically (up to noise) in s, steep at first — the n^Theta(1/s) curve",
		},
	}
	for ii, inst := range []instance{hc, exp} {
		pairs := inst.g.NumVertices() / 4
		for si, s := range sValues {
			semi, opt, _, err := ratioStats(inst, s, pairs, trials, optIters, cfg, uint64(200+10*ii+si))
			if err != nil {
				return nil, fmt.Errorf("E2 %s s=%d: %w", inst.name, s, err)
			}
			ratio := semi / opt
			tbl.AddRow(inst.name, fmt.Sprint(s), stats.F(semi), stats.F(opt),
				stats.F(ratio), stats.F(math.Log2(math.Max(ratio, 1e-9))))
		}
	}
	return tbl, nil
}
