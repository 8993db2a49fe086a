// Package temodel reproduces the SMORE-style traffic-engineering setting
// that motivated the paper (Section 1, [22]): a fixed network, a sequence of
// demand matrices (one per epoch, standing in for the periodically collected
// traffic snapshots), and a set of routing methods compared on max edge
// congestion per epoch.
//
// The semi-oblivious method fixes its candidate paths once, before any
// demand is seen, and re-optimizes only the sending rates each epoch —
// exactly the deployment constraint (installing paths is slow, changing
// rates is fast) that makes semi-oblivious routing attractive in practice.
package temodel

import (
	"context"
	"fmt"
	"math/rand/v2"

	"sparseroute/internal/core"
	"sparseroute/internal/demand"
	"sparseroute/internal/flow"
	"sparseroute/internal/graph"
	"sparseroute/internal/mcf"
	"sparseroute/internal/oblivious"
)

// Method routes one epoch's demand.
type Method interface {
	Name() string
	Route(d *demand.Demand) (flow.Routing, error)
}

// SemiOblivious adapts rates over a fixed path system each epoch.
type SemiOblivious struct {
	Label  string
	System *core.PathSystem
	Opts   *core.AdaptOptions
}

// Name implements Method.
func (m *SemiOblivious) Name() string { return m.Label }

// Route implements Method.
func (m *SemiOblivious) Route(d *demand.Demand) (flow.Routing, error) {
	return m.System.Adapt(d, m.Opts)
}

// Static routes every epoch through a fixed oblivious routing with no
// adaptation at all (covers SPF, KSP/ECMP and Räcke baselines).
type Static struct {
	Label  string
	Router oblivious.Router
}

// Name implements Method.
func (m *Static) Name() string { return m.Label }

// Route implements Method.
func (m *Static) Route(d *demand.Demand) (flow.Routing, error) {
	return oblivious.FractionalRouting(m.Router, d)
}

// Optimal recomputes the (approximate) offline optimum every epoch — the
// upper bound no online method can beat, and the "ideal TE" baseline.
type Optimal struct {
	Label string
	G     *graph.Graph
	Opts  *mcf.Options
}

// Name implements Method.
func (m *Optimal) Name() string { return m.Label }

// Route implements Method.
func (m *Optimal) Route(d *demand.Demand) (flow.Routing, error) {
	return mcf.ApproxOptCongestionCtx(context.Background(), m.G, d, m.Opts)
}

// EpochResult holds per-method congestion for one epoch.
type EpochResult struct {
	Congestion map[string]float64
}

// RunResult aggregates a scenario run.
type RunResult struct {
	MethodNames []string
	Epochs      []EpochResult
}

// Run evaluates every method on every epoch demand.
func Run(g *graph.Graph, methods []Method, demands []*demand.Demand) (*RunResult, error) {
	rr := &RunResult{}
	for _, m := range methods {
		rr.MethodNames = append(rr.MethodNames, m.Name())
	}
	for ei, d := range demands {
		res := EpochResult{Congestion: make(map[string]float64, len(methods))}
		for _, m := range methods {
			routing, err := m.Route(d)
			if err != nil {
				return nil, fmt.Errorf("temodel: epoch %d method %s: %w", ei, m.Name(), err)
			}
			if err := routing.ValidateRoutes(g, d, 1e-4*(1+d.Size())); err != nil {
				return nil, fmt.Errorf("temodel: epoch %d method %s returned bad routing: %w", ei, m.Name(), err)
			}
			res.Congestion[m.Name()] = routing.MaxCongestion(g)
		}
		rr.Epochs = append(rr.Epochs, res)
	}
	return rr, nil
}

// Summary holds aggregate ratios of a method against a baseline method.
type Summary struct {
	MeanCongestion float64
	MaxCongestion  float64
	// MeanRatio / MaxRatio are relative to the baseline method passed to
	// Summarize (typically the optimal); 0 when the baseline is missing.
	MeanRatio float64
	MaxRatio  float64
}

// Summarize aggregates the run per method, with ratios against baseline.
func (rr *RunResult) Summarize(baseline string) map[string]Summary {
	out := make(map[string]Summary, len(rr.MethodNames))
	for _, name := range rr.MethodNames {
		var s Summary
		n := 0
		for _, ep := range rr.Epochs {
			c := ep.Congestion[name]
			s.MeanCongestion += c
			if c > s.MaxCongestion {
				s.MaxCongestion = c
			}
			if b, ok := ep.Congestion[baseline]; ok && b > 0 {
				r := c / b
				s.MeanRatio += r
				if r > s.MaxRatio {
					s.MaxRatio = r
				}
			}
			n++
		}
		if n > 0 {
			s.MeanCongestion /= float64(n)
			s.MeanRatio /= float64(n)
		}
		out[name] = s
	}
	return out
}

// GravitySequence generates an epoch sequence of gravity demands with
// per-epoch random fluctuation, the standard synthetic stand-in for the
// production traffic matrices of the SMORE evaluation.
func GravitySequence(g *graph.Graph, epochs int, total float64, pairs int, rng *rand.Rand) []*demand.Demand {
	out := make([]*demand.Demand, epochs)
	for e := range out {
		scale := 0.5 + rng.Float64() // diurnal-ish variation
		out[e] = demand.Gravity(g, total*scale, pairs, rng)
	}
	return out
}
