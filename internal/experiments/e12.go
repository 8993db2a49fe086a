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

// e12TopologySweep runs the log-sparsity construction across the full
// topology zoo — including the interconnect topologies (torus, fat-tree)
// and the classical mesh disciplines as baselines on the grid — confirming
// the paper's "works on any graph" claim beyond the three E1 topologies.
// Expected shape: the sampled system's ratio vs OPT stays single-digit on
// every topology; on the grid, the deterministic XY baseline is the worst
// and ROMM/O1TURN sit between XY and the adapted sample.
func e12TopologySweep(cfg Config) (*stats.Table, error) {
	trials := 3
	optIters := 300
	gridSide := 6
	if cfg.Quick {
		trials, optIters, gridSide = 2, 150, 5
	}
	tbl := &stats.Table{
		Title:  "E12: topology sweep (R-sample s=4 from Raecke) + mesh baselines",
		Header: []string{"topology", "n", "method", "mean cong", "mean ratio vs OPT"},
		Notes: []string{
			"expected shape: sampled ratio single-digit everywhere; XY worst on the grid",
		},
	}
	grid := gen.Grid(gridSide, gridSide)
	torus := gen.Torus(5, 5)
	fatTree, _ := gen.FatTree(4)
	if !cfg.Quick {
		torus = gen.Torus(6, 6)
	}
	topos := []struct {
		name string
		g    *graph.Graph
	}{
		{fmt.Sprintf("grid-%dx%d", gridSide, gridSide), grid},
		{"torus", torus},
		{"fat-tree-k4", fatTree},
	}
	for ti, tp := range topos {
		g := tp.g
		router, err := oblivious.NewRaecke(g, nil, cfg.rng(uint64(1200+ti)))
		if err != nil {
			return nil, err
		}
		var semiCong, semiRatio float64
		rng := cfg.rng(uint64(1210 + ti))
		for t := 0; t < trials; t++ {
			d := demand.RandomPermutation(g.NumVertices(), g.NumVertices()/4, rng)
			ps, err := core.RSample(router, d.Support(), 4, cfg.Seed+uint64(1220+10*ti+t))
			if err != nil {
				return nil, err
			}
			semi, err := ps.AdaptCongestion(d, nil)
			if err != nil {
				return nil, err
			}
			opt, err := approxOpt(g, d, optIters)
			if err != nil {
				return nil, err
			}
			semiCong += semi / float64(trials)
			semiRatio += semi / opt / float64(trials)
		}
		tbl.AddRow(tp.name, fmt.Sprint(g.NumVertices()), "raecke-sample-4",
			stats.F(semiCong), stats.F(semiRatio))
	}
	// Mesh baselines on the grid, same demand draws.
	meshes := []struct {
		name string
		mode oblivious.MeshMode
	}{
		{"mesh-xy", oblivious.XY},
		{"mesh-o1turn", oblivious.O1Turn},
		{"mesh-romm", oblivious.ROMM},
	}
	for mi, ms := range meshes {
		router, err := oblivious.NewMesh(grid, gridSide, gridSide, ms.mode)
		if err != nil {
			return nil, err
		}
		var cong, ratio float64
		rng := cfg.rng(uint64(1210)) // same draws as the grid row above
		_ = mi
		for t := 0; t < trials; t++ {
			d := demand.RandomPermutation(grid.NumVertices(), grid.NumVertices()/4, rng)
			c, err := oblivious.Congestion(router, d)
			if err != nil {
				return nil, err
			}
			opt, err := approxOpt(grid, d, optIters)
			if err != nil {
				return nil, err
			}
			cong += c / float64(trials)
			ratio += c / opt / float64(trials)
		}
		tbl.AddRow(fmt.Sprintf("grid-%dx%d", gridSide, gridSide), fmt.Sprint(grid.NumVertices()),
			ms.name, stats.F(cong), stats.F(ratio))
	}
	return tbl, nil
}
