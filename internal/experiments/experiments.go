// Package experiments regenerates the quantitative content of the paper's
// results as printable tables — one experiment per theorem/lemma, indexed in
// DESIGN.md and recorded against expectations in EXPERIMENTS.md.
//
// The paper is a theory paper; its "evaluation" is the set of theorems plus
// the lower-bound construction. Each experiment below measures the quantity
// the corresponding statement bounds, on concrete benchmark topologies, so
// the *shape* of each claim (who wins, how ratios scale) can be checked
// empirically. Absolute constants differ from the paper's since the base
// oblivious routing is the practical Räcke/Valiant construction, not the
// worst-case-certified one.
package experiments

import (
	"context"
	"fmt"
	"math/rand/v2"

	"sparseroute/internal/core"
	"sparseroute/internal/demand"
	"sparseroute/internal/graph"
	"sparseroute/internal/graph/gen"
	"sparseroute/internal/mcf"
	"sparseroute/internal/oblivious"
	"sparseroute/internal/stats"
)

// Config scopes an experiment run.
type Config struct {
	// Seed drives every random choice; identical configs reproduce
	// identical tables.
	Seed uint64
	// Quick shrinks instance sizes for benchmarks and CI.
	Quick bool
}

func (c Config) rng(salt uint64) *rand.Rand {
	return rand.New(rand.NewPCG(c.Seed, salt^0x9e3779b97f4a7c15))
}

// Runner is one named experiment.
type Runner struct {
	Name  string
	Brief string
	Run   func(Config) (*stats.Table, error)
}

// All lists every experiment in the DESIGN.md index order.
func All() []Runner {
	return []Runner{
		{"E1", "Theorem 2.3: log-sparsity samples are near-optimal", e1LogSparsity},
		{"E2", "Theorem 2.5: sparsity-competitiveness trade-off", e2Tradeoff},
		{"E3", "Hypercube: deterministic vs few sampled paths", e3Hypercube},
		{"E4", "Lemma 2.7: (R+lambda)-sampling for non-unit demands", e4GeneralDemands},
		{"E5", "Lemmas 2.8/2.9: completion-time-competitive sampling", e5CompletionTime},
		{"E6", "Section 8: lower-bound adversary on B_{k,p}", e6LowerBound},
		{"E7", "Section 5.3: dynamic deletion process concentration", e7DynamicProcess},
		{"E8", "SMORE-style traffic engineering and sampler ablation", e8Traffic},
		{"E9", "Design ablations: Raecke tree count, sampler source", e9Ablation},
		{"E10", "Main Lemma concentration vs Chernoff/bad-pattern bounds", e10Concentration},
		{"E11", "SMORE robustness: rate-shifting under link failures", e11Robustness},
		{"E12", "Topology sweep: torus/fat-tree + mesh baselines", e12TopologySweep},
		{"E13", "Adaptive adversary vs sampled systems", e13Adversary},
	}
}

// Find returns the runner with the given name.
func Find(name string) (Runner, error) {
	for _, r := range All() {
		if r.Name == name {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: unknown experiment %q", name)
}

// ---------------------------------------------------------------------------
// helpers

// instance bundles a graph with a base oblivious router for sampling.
type instance struct {
	name   string
	g      *graph.Graph
	router oblivious.Router
}

func hypercubeInstance(dim int) (instance, error) {
	g := gen.Hypercube(dim)
	r, err := oblivious.NewValiant(g, dim)
	if err != nil {
		return instance{}, err
	}
	return instance{name: fmt.Sprintf("hypercube-d%d", dim), g: g, router: r}, nil
}

func raeckeInstance(name string, g *graph.Graph, trees int, rng *rand.Rand) (instance, error) {
	r, err := oblivious.NewRaecke(g, &oblivious.RaeckeOptions{NumTrees: trees}, rng)
	if err != nil {
		return instance{}, err
	}
	return instance{name: name, g: g, router: r}, nil
}

// approxOpt returns the MWU-approximated offline optimal congestion.
func approxOpt(g *graph.Graph, d *demand.Demand, iters int) (float64, error) {
	r, err := mcf.ApproxOptCongestionCtx(context.Background(), g, d, &mcf.Options{Iterations: iters})
	if err != nil {
		return 0, err
	}
	return r.MaxCongestion(g), nil
}

// ratioOnPermutations samples an R-sparse system on the demand's pairs and
// returns (semi-oblivious congestion, OPT, oblivious congestion) averaged
// over `trials` random permutation demands.
func ratioStats(inst instance, R, pairs, trials, optIters int, cfg Config, salt uint64) (semiMean, optMean, oblMean float64, err error) {
	rng := cfg.rng(salt)
	for t := 0; t < trials; t++ {
		d := demand.RandomPermutation(inst.g.NumVertices(), pairs, rng)
		ps, err := core.RSample(inst.router, d.Support(), R, cfg.Seed+salt+uint64(t)*1315423911)
		if err != nil {
			return 0, 0, 0, err
		}
		semi, err := ps.AdaptCongestion(d, nil)
		if err != nil {
			return 0, 0, 0, err
		}
		opt, err := approxOpt(inst.g, d, optIters)
		if err != nil {
			return 0, 0, 0, err
		}
		obl, err := oblivious.Congestion(inst.router, d)
		if err != nil {
			return 0, 0, 0, err
		}
		semiMean += semi
		optMean += opt
		oblMean += obl
	}
	f := float64(trials)
	return semiMean / f, optMean / f, oblMean / f, nil
}
