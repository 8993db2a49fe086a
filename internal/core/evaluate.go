package core

import (
	"context"
	"fmt"

	"sparseroute/internal/demand"
	"sparseroute/internal/mcf"
	"sparseroute/internal/oblivious"
)

// Report compares a semi-oblivious routing against the offline optimum and
// (optionally) its base oblivious routing on one demand — the Stage 5
// accounting of the paper's protocol.
type Report struct {
	// SemiOblivious is cong(P, d): best congestion within the path system.
	SemiOblivious float64
	// Opt is the (approximate or exact) offline optimal congestion OPT(d).
	Opt float64
	// Oblivious is cong(R, d) of the base oblivious routing (0 when no base
	// router was supplied).
	Oblivious float64
	// Ratio is SemiOblivious / Opt, the competitive ratio.
	Ratio float64
	// RatioVsOblivious is SemiOblivious / Oblivious (Definition 5.1's
	// "competitive with an oblivious routing"), 0 when unavailable.
	RatioVsOblivious float64
}

// EvalOptions controls the evaluation harness.
type EvalOptions struct {
	// Adapt forwards to the adaptation step.
	Adapt AdaptOptions
	// OptExact forces the exact edge-based LP for OPT (small instances
	// only); otherwise the MWU approximation is used.
	OptExact bool
	// OptMWU forwards options to the approximate OPT solver.
	OptMWU mcf.Options
}

// Evaluate measures the competitive ratio of ps on demand d. base may be nil
// when the oblivious comparison is not wanted.
func Evaluate(ps *PathSystem, base oblivious.Router, d *demand.Demand, opt *EvalOptions) (*Report, error) {
	var o EvalOptions
	if opt != nil {
		o = *opt
	}
	semi, err := ps.AdaptCongestion(d, &o.Adapt)
	if err != nil {
		return nil, fmt.Errorf("core: adaptation failed: %w", err)
	}
	var optCong float64
	if o.OptExact {
		optCong, err = mcf.OptimalCongestionExactCtx(context.Background(), ps.g, d)
	} else {
		r, e2 := mcf.ApproxOptCongestionCtx(context.Background(), ps.g, d, &o.OptMWU)
		err = e2
		if e2 == nil {
			optCong = r.MaxCongestion(ps.g)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("core: OPT computation failed: %w", err)
	}
	rep := &Report{SemiOblivious: semi, Opt: optCong}
	if optCong > 0 {
		rep.Ratio = semi / optCong
	}
	if base != nil {
		oblCong, err := oblivious.Congestion(base, d)
		if err != nil {
			return nil, fmt.Errorf("core: oblivious congestion failed: %w", err)
		}
		rep.Oblivious = oblCong
		if oblCong > 0 {
			rep.RatioVsOblivious = semi / oblCong
		}
	}
	return rep, nil
}
