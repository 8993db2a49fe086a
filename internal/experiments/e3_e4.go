package experiments

import (
	"fmt"

	"sparseroute/internal/core"
	"sparseroute/internal/demand"
	"sparseroute/internal/graph/gen"
	"sparseroute/internal/oblivious"
	"sparseroute/internal/stats"
)

// e3Hypercube reproduces the paper's motivating hypercube story (Section
// 1.1 / [19]): deterministic single-path greedy bit-fixing suffers
// polynomial congestion on the transpose and bit-reversal permutations,
// while a handful of paths sampled from Valiant's oblivious routing —
// deterministically fixed before the demand arrives — routes them
// near-optimally after rate adaptation. Expected shape: the bit-fix row has
// congestion ~sqrt(N); the s>=2 sampled rows collapse to within a small
// factor of OPT.
func e3Hypercube(cfg Config) (*stats.Table, error) {
	dim := 6
	optIters := 300
	if cfg.Quick {
		dim, optIters = 4, 150
	}
	inst, err := hypercubeInstance(dim)
	if err != nil {
		return nil, err
	}
	greedy, err := oblivious.NewGreedyBitFix(inst.g, dim)
	if err != nil {
		return nil, err
	}
	demands := []struct {
		name string
		d    *demand.Demand
	}{
		{"transpose", demand.Transpose(dim)},
		{"bit-reversal", demand.BitReversal(dim)},
	}
	tbl := &stats.Table{
		Title:  fmt.Sprintf("E3: hypercube d=%d, adversarial permutations — deterministic vs sampled", dim),
		Header: []string{"demand", "method", "congestion", "ratio vs OPT"},
		Notes: []string{
			"expected shape: greedy bit-fixing ~sqrt(N) congestion; sampled s>=2 within a small factor of OPT",
		},
	}
	for di, dm := range demands {
		opt, err := approxOpt(inst.g, dm.d, optIters)
		if err != nil {
			return nil, err
		}
		gCong, err := oblivious.Congestion(greedy, dm.d)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(dm.name, "greedy-bitfix (1 det path)", stats.F(gCong), stats.F(gCong/opt))
		for _, s := range []int{1, 2, 4} {
			ps, err := core.RSample(inst.router, dm.d.Support(), s, cfg.Seed+uint64(300+10*di+s))
			if err != nil {
				return nil, err
			}
			semi, err := ps.AdaptCongestion(dm.d, nil)
			if err != nil {
				return nil, err
			}
			tbl.AddRow(dm.name, fmt.Sprintf("valiant-sample s=%d", s), stats.F(semi), stats.F(semi/opt))
		}
		tbl.AddRow(dm.name, "OPT (fractional, approx)", stats.F(opt), "1.00")
	}
	return tbl, nil
}

// e4GeneralDemands reproduces Lemma 2.7 and the Section 2.1 counterexample:
// on two cliques joined by lambda bridges, a single cross-clique demand of
// size lambda needs lambda distinct bridge paths — plain R-sampling with
// small R collides on bridges while (R+lambda)-sampling finds all of them.
// Expected shape: the (R+lambda) row's ratio is ~1; the plain-R row degrades
// as the demand amount grows past the sampled bridge diversity.
func e4GeneralDemands(cfg Config) (*stats.Table, error) {
	cliqueSize := 10
	bridges := 4
	if cfg.Quick {
		cliqueSize = 6
		bridges = 3
	}
	g := gen.TwoCliques(cliqueSize, bridges)
	router, err := oblivious.NewRandomDetour(g)
	if err != nil {
		return nil, err
	}
	// Cross-clique pair avoiding bridge endpoints (so every path must pick
	// a bridge).
	u := bridges // left vertex not on a bridge
	v := cliqueSize + bridges + 1
	if v >= 2*cliqueSize {
		v = 2*cliqueSize - 1
	}
	pair := demand.MakePair(u, v)
	amount := float64(bridges)
	d := demand.SinglePair(u, v, amount)

	opt, err := approxOpt(g, d, 400)
	if err != nil {
		return nil, err
	}
	tbl := &stats.Table{
		Title: fmt.Sprintf("E4 (Lemma 2.7): two %d-cliques, %d bridges, one cross demand of %g units",
			cliqueSize, bridges, amount),
		Header: []string{"sampling", "paths", "mean distinct bridges", "mean congestion", "ratio vs OPT"},
		Notes: []string{
			"expected shape: R-sampling with R < lambda cannot reach all bridges; (R+lambda) ratio ~1",
			"means over 5 independent samplings",
		},
	}
	countBridges := func(ps *core.PathSystem) int {
		used := map[int]bool{}
		for _, p := range ps.Unique(u, v) {
			for _, id := range p.EdgeIDs {
				e := g.Edge(id)
				if (e.U < cliqueSize) != (e.V < cliqueSize) {
					used[id] = true
				}
			}
		}
		return len(used)
	}
	const trials = 5
	for _, mode := range []string{"R=2", "R=2+lambda"} {
		var paths int
		var bridgeMean, congMean float64
		for t := 0; t < trials; t++ {
			var ps *core.PathSystem
			var err error
			salt := cfg.Seed + uint64(401+t*13)
			if mode == "R=2" {
				ps, err = core.RSample(router, []demand.Pair{pair}, 2, salt)
			} else {
				ps, err = core.RPlusLambdaSample(router, []demand.Pair{pair}, 2, 0, salt+7777)
			}
			if err != nil {
				return nil, err
			}
			semi, err := ps.AdaptCongestion(d, nil)
			if err != nil {
				return nil, err
			}
			paths = ps.NumSampled(pair)
			bridgeMean += float64(countBridges(ps)) / trials
			congMean += semi / trials
		}
		tbl.AddRow(mode, fmt.Sprint(paths), stats.F(bridgeMean),
			stats.F(congMean), stats.F(congMean/opt))
	}
	tbl.AddRow("OPT (fractional)", "-", fmt.Sprint(bridges), stats.F(opt), "1.00")
	return tbl, nil
}
