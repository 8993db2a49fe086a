package core

import (
	"context"
	"fmt"
	"math/rand/v2"

	"sparseroute/internal/demand"
	"sparseroute/internal/flow"
	"sparseroute/internal/graph"
	"sparseroute/internal/mcf"
	"sparseroute/internal/rounding"
)

// AdaptOptions tunes the rate-adaptation step.
type AdaptOptions struct {
	// ExactThreshold: use the exact simplex LP when the total number of
	// candidate variables (paths over the demand's support) is at most this
	// bound; otherwise use the MWU solver. Default 600. Negative disables
	// the exact solver entirely.
	ExactThreshold int
	// MWU forwards options to the approximate solver.
	MWU mcf.Options
	// RoundingTrials is the number of randomized roundings AdaptIntegral
	// tries before local search (default 8).
	RoundingTrials int
	// LocalSearchPasses bounds the integral local-search sweeps (default 20).
	LocalSearchPasses int
	// OnSolver, when non-nil, is called with "exact" or "mwu" just before the
	// corresponding solver runs — an observability seam; both may fire in one
	// Adapt when the exact LP hits numerical trouble and falls through to MWU.
	OnSolver func(solver string)
}

func (o *AdaptOptions) withDefaults() AdaptOptions {
	out := AdaptOptions{ExactThreshold: 600, RoundingTrials: 8, LocalSearchPasses: 20}
	if o != nil {
		out.MWU = o.MWU
		out.OnSolver = o.OnSolver
		if o.ExactThreshold != 0 {
			out.ExactThreshold = o.ExactThreshold
		}
		if o.RoundingTrials > 0 {
			out.RoundingTrials = o.RoundingTrials
		}
		if o.LocalSearchPasses > 0 {
			out.LocalSearchPasses = o.LocalSearchPasses
		}
	}
	return out
}

// candidatesFor returns the deduplicated candidate map restricted to d's
// support — the form the adaptation solvers consume.
func (ps *PathSystem) candidatesFor(d *demand.Demand) map[demand.Pair][]graph.Path {
	support := d.Support()
	out := make(map[demand.Pair][]graph.Path, len(support))
	for _, p := range support {
		out[p] = ps.Unique(p.U, p.V)
	}
	return out
}

// Adapt performs Stage 4 of the protocol: given the revealed demand d, it
// computes a (near-)minimum-congestion fractional routing of d supported on
// the system's candidate paths. Small instances are solved exactly with the
// simplex LP; larger ones with the MWU solver.
func (ps *PathSystem) Adapt(d *demand.Demand, opt *AdaptOptions) (flow.Routing, error) {
	return ps.AdaptCtx(context.Background(), d, opt)
}

// AdaptCtx is Adapt under a context: both the exact simplex solver and the
// MWU solver poll ctx and abort with ctx.Err() when it is canceled, so a
// caller whose deadline fired stops burning CPU instead of orphaning the
// solve.
func (ps *PathSystem) AdaptCtx(ctx context.Context, d *demand.Demand, opt *AdaptOptions) (flow.Routing, error) {
	o := opt.withDefaults()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !ps.Covers(d) {
		return nil, fmt.Errorf("core: %w", mcf.ErrNoCandidates)
	}
	cand := ps.candidatesFor(d)
	variables := 0 // candidate-path variables the adaptation LP would have
	for _, paths := range cand {
		variables += len(paths)
	}
	if o.ExactThreshold > 0 && variables <= o.ExactThreshold {
		if o.OnSolver != nil {
			o.OnSolver("exact")
		}
		if r, err := mcf.MinCongestionOnPathsExactCtx(ctx, ps.g, cand, d); err == nil {
			return r, nil
		} else if cerr := ctx.Err(); cerr != nil {
			// Canceled, not numerical trouble: do NOT fall through to MWU.
			return nil, cerr
		}
		// Numerical trouble in the LP: fall through to MWU.
	}
	if o.OnSolver != nil {
		o.OnSolver("mwu")
	}
	return mcf.MinCongestionOnPathsCtx(ctx, ps.g, cand, d, &o.MWU)
}

// AdaptCongestion is Adapt returning only the achieved maximum congestion —
// the cong(P, d) of Definition 5.1.
func (ps *PathSystem) AdaptCongestion(d *demand.Demand, opt *AdaptOptions) (float64, error) {
	return ps.AdaptCongestionCtx(context.Background(), d, opt)
}

// AdaptCongestionCtx is AdaptCongestion under a context.
func (ps *PathSystem) AdaptCongestionCtx(ctx context.Context, d *demand.Demand, opt *AdaptOptions) (float64, error) {
	r, err := ps.AdaptCtx(ctx, d, opt)
	if err != nil {
		return 0, err
	}
	return r.MaxCongestion(ps.g), nil
}

// AdaptIntegral performs the integral Stage 4 (Definition 6.1): fractional
// adaptation, randomized rounding (Lemma 6.3, best of several trials), then
// packet-level local search over the candidate paths.
func (ps *PathSystem) AdaptIntegral(d *demand.Demand, opt *AdaptOptions, rng *rand.Rand) (flow.Routing, error) {
	return ps.adaptIntegralCtx(context.Background(), d, opt, rng)
}

// adaptIntegralCtx is AdaptIntegral under a context. The fractional solve is
// fully cancelable; the rounding and local-search phases are bounded by their
// trial/pass budgets and poll ctx between phases.
func (ps *PathSystem) adaptIntegralCtx(ctx context.Context, d *demand.Demand, opt *AdaptOptions, rng *rand.Rand) (flow.Routing, error) {
	o := opt.withDefaults()
	if !d.IsIntegral() {
		return nil, fmt.Errorf("core: integral adaptation needs an integral demand")
	}
	frac, err := ps.AdaptCtx(ctx, d, &o)
	if err != nil {
		return nil, err
	}
	rounded, err := rounding.RoundBest(ps.g, frac, d, o.RoundingTrials, rng)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return rounding.LocalSearch(ps.g, rounded, ps.candidatesFor(d), o.LocalSearchPasses), nil
}

// CompletionResult is the outcome of completion-time adaptation.
type CompletionResult struct {
	Routing flow.Routing
	// Congestion and Dilation of the chosen routing; CompletionTime is
	// their sum, the objective of Section 7 (congestion + dilation up to
	// the classical scheduling constant [23]).
	Congestion     float64
	Dilation       int
	CompletionTime float64
}

// AdaptCompletionTime minimizes congestion + dilation over the system: for
// every geometric dilation class D present in the system it adapts within
// the D-hop-restricted subsystem and returns the class minimizing
// cong + D. This is the demand-dependent optimization the hop-scale union
// sample of Lemma 2.8 was built for.
func (ps *PathSystem) AdaptCompletionTime(d *demand.Demand, opt *AdaptOptions) (*CompletionResult, error) {
	maxHops := ps.MaxHops()
	if maxHops == 0 {
		return nil, fmt.Errorf("core: empty path system")
	}
	var best *CompletionResult
	for h := 1; ; h *= 2 {
		bound := h
		if bound > maxHops {
			bound = maxHops
		}
		sub := ps.restrictHopsKeepShortest(bound)
		if sub.Covers(d) {
			r, err := sub.Adapt(d, opt)
			if err != nil {
				return nil, err
			}
			cong := r.MaxCongestion(ps.g)
			dil := r.Dilation()
			res := &CompletionResult{
				Routing:        r,
				Congestion:     cong,
				Dilation:       dil,
				CompletionTime: cong + float64(dil),
			}
			if best == nil || res.CompletionTime < best.CompletionTime {
				best = res
			}
		}
		if bound == maxHops {
			break
		}
	}
	if best == nil {
		return nil, fmt.Errorf("core: %w", mcf.ErrNoCandidates)
	}
	return best, nil
}
