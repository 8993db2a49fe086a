// Package adversary searches for demands that a fixed semi-oblivious path
// system routes badly. The Section 8 lower bound constructs such demands
// analytically on the double-star gadget; this package is the empirical
// counterpart for arbitrary graphs: a hill-climbing search over permutation
// demands maximizing the ratio cong(P, d) / OPT(d).
//
// Theorem 5.3 says a sampled system is competitive on ALL demands with high
// probability — so a bounded-budget adversary should fail to find outliers
// much worse than random demands. Experiment E13 measures exactly that gap.
package adversary

import (
	"context"
	"fmt"
	"math/rand/v2"

	"sparseroute/internal/core"
	"sparseroute/internal/demand"
	"sparseroute/internal/mcf"
)

// Options tunes the search.
type Options struct {
	// Pairs is the permutation demand size (default n/4).
	Pairs int
	// Steps is the hill-climbing budget (default 40).
	Steps int
	// Restarts is the number of independent starting demands (default 3).
	Restarts int
	// OptIters forwards to the OPT approximation (default 300).
	OptIters int
	// Adapt forwards to the adaptation step.
	Adapt core.AdaptOptions
}

func (o *Options) withDefaults(n int) Options {
	out := Options{Pairs: n / 4, Steps: 40, Restarts: 3, OptIters: 300}
	if o != nil {
		if o.Pairs > 0 {
			out.Pairs = o.Pairs
		}
		if o.Steps > 0 {
			out.Steps = o.Steps
		}
		if o.Restarts > 0 {
			out.Restarts = o.Restarts
		}
		if o.OptIters > 0 {
			out.OptIters = o.OptIters
		}
		out.Adapt = o.Adapt
	}
	if out.Pairs < 1 {
		out.Pairs = 1
	}
	return out
}

// Result is the worst demand found.
type Result struct {
	Demand *demand.Demand
	// Ratio is cong(P, Demand) / OPT(Demand) (OPT approximated; the upper
	// bound of the certificate, so the ratio is conservative).
	Ratio float64
	// InitialRatio is the best ratio among the random starting demands,
	// before any hill climbing — the gap to Ratio measures how much an
	// adaptive adversary gains over random sampling.
	InitialRatio float64
	// Evaluations counts ratio evaluations spent.
	Evaluations int
}

// ratioOf evaluates the competitive ratio of ps on d. Pairs missing from the
// system make the demand infeasible: return an error.
func ratioOf(ps *core.PathSystem, d *demand.Demand, o *Options) (float64, error) {
	if !ps.Covers(d) {
		return 0, fmt.Errorf("adversary: demand not covered by the system")
	}
	semi, err := ps.AdaptCongestion(d, &o.Adapt)
	if err != nil {
		return 0, err
	}
	optR, err := mcf.ApproxOptCongestionCtx(context.Background(), ps.Graph(), d, &mcf.Options{Iterations: o.OptIters})
	if err != nil {
		return 0, err
	}
	opt := optR.MaxCongestion(ps.Graph())
	if opt <= 0 {
		return 0, nil
	}
	return semi / opt, nil
}

// mutate proposes a neighbor permutation demand: pick two pairs and re-match
// their four endpoints differently (or, with small probability, replace one
// pair with a fresh random one).
func mutate(d *demand.Demand, n int, rng *rand.Rand) *demand.Demand {
	sup := d.Support()
	if len(sup) == 0 {
		return d.Clone()
	}
	out := d.Clone()
	if len(sup) >= 2 && rng.Float64() < 0.8 {
		i := rng.IntN(len(sup))
		j := rng.IntN(len(sup))
		for j == i {
			j = rng.IntN(len(sup))
		}
		a, b := sup[i], sup[j]
		out.Set(a.U, a.V, 0)
		out.Set(b.U, b.V, 0)
		// Two ways to re-match four distinct vertices; pick one at random.
		if rng.IntN(2) == 0 {
			out.Set(a.U, b.U, 1)
			out.Set(a.V, b.V, 1)
		} else {
			out.Set(a.U, b.V, 1)
			out.Set(a.V, b.U, 1)
		}
		return out
	}
	// Replace a pair with a fresh one over unused vertices.
	used := map[int]bool{}
	for _, p := range sup {
		used[p.U] = true
		used[p.V] = true
	}
	victim := sup[rng.IntN(len(sup))]
	out.Set(victim.U, victim.V, 0)
	delete(used, victim.U)
	delete(used, victim.V)
	var free []int
	for v := 0; v < n; v++ {
		if !used[v] {
			free = append(free, v)
		}
	}
	if len(free) < 2 {
		return d.Clone()
	}
	u := free[rng.IntN(len(free))]
	v := free[rng.IntN(len(free))]
	for v == u {
		v = free[rng.IntN(len(free))]
	}
	out.Set(u, v, 1)
	return out
}

// Search hill-climbs toward the worst permutation demand for ps. The system
// must cover all pairs the search may propose — sample over core.AllPairs
// for a clean experiment.
func Search(ps *core.PathSystem, opt *Options, rng *rand.Rand) (*Result, error) {
	n := ps.Graph().NumVertices()
	o := opt.withDefaults(n)
	res := &Result{}
	for restart := 0; restart < o.Restarts; restart++ {
		cur := demand.RandomPermutation(n, o.Pairs, rng)
		curRatio, err := ratioOf(ps, cur, &o)
		if err != nil {
			return nil, err
		}
		res.Evaluations++
		if curRatio > res.InitialRatio {
			res.InitialRatio = curRatio
		}
		if curRatio > res.Ratio {
			res.Ratio = curRatio
			res.Demand = cur
		}
		for step := 0; step < o.Steps; step++ {
			cand := mutate(cur, n, rng)
			if !cand.IsPermutation() {
				continue
			}
			candRatio, err := ratioOf(ps, cand, &o)
			if err != nil {
				return nil, err
			}
			res.Evaluations++
			if candRatio > curRatio {
				cur, curRatio = cand, candRatio
				if curRatio > res.Ratio {
					res.Ratio = curRatio
					res.Demand = cur
				}
			}
		}
	}
	if res.Demand == nil {
		return nil, fmt.Errorf("adversary: search produced no demand")
	}
	return res, nil
}
