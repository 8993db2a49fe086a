package core

import (
	"context"
	"fmt"

	"sparseroute/internal/demand"
	"sparseroute/internal/flow"
	"sparseroute/internal/mcf"
)

// CandidateWeights projects a routing into the per-pair path-key weight
// distributions mcf.WarmStart consumes: for each pair, the relative weight
// the routing put on each candidate path. This is how an epoch's solution
// becomes the next epoch's MWU prior — only ratios matter, so the projection
// stays valid even when the next matrix scales every entry.
func CandidateWeights(r flow.Routing) map[demand.Pair]map[string]float64 {
	out := make(map[demand.Pair]map[string]float64, len(r))
	for pair, wps := range r {
		w := make(map[string]float64, len(wps))
		for _, wp := range wps {
			if wp.Weight > 0 {
				w[wp.Path.Key()] += wp.Weight
			}
		}
		if len(w) > 0 {
			out[pair] = w
		}
	}
	return out
}

// DeltaResult is the outcome of an incremental delta adaptation.
type DeltaResult struct {
	// Routing routes the full demand d: fresh solves for the touched pairs
	// merged with the previous epoch's entries for every untouched pair.
	Routing flow.Routing
	// EdgeLoads is Routing's absolute load per edge ID, computed
	// incrementally (background + touched-pair flow), and Congestion its
	// maximum relative edge congestion.
	EdgeLoads  []float64
	Congestion float64
}

// AdaptDeltaCtx performs the incremental epoch step: given the previous
// epoch's routing (of a demand differing from d only on the touched pairs)
// and its edge loads, it re-solves ONLY the touched pairs — treating every
// untouched pair's flow as a fixed background the MWU routes around — and
// merges the result with the untouched entries. Cost is O(k·paths·rounds)
// for k touched pairs instead of O(pairs·paths·rounds) for a full re-solve.
//
// prevLoads must be prev's EdgeLoads on ps.Graph() (pass nil to have them
// computed here). The untouched pairs of prev must still route d exactly;
// any mismatch returns an error, and the caller should fall back to a full
// (warm or cold) solve.
func (ps *PathSystem) AdaptDeltaCtx(ctx context.Context, prev flow.Routing, prevLoads []float64, d *demand.Demand, touched []demand.Pair, opt *AdaptOptions) (*DeltaResult, error) {
	o := opt.withDefaults()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g := ps.g
	touchedSet := make(map[demand.Pair]bool, len(touched))
	for _, p := range touched {
		touchedSet[p] = true
	}
	// The untouched part of prev must still be a routing of the untouched
	// part of d — otherwise the "background" would not be the flow actually
	// serving those pairs and the merged routing would not route d.
	const tol = 1e-6
	for _, p := range d.Support() {
		if touchedSet[p] {
			continue
		}
		var got float64
		for _, wp := range prev[p] {
			got += wp.Weight
		}
		want := d.Get(p.U, p.V)
		if got < want-tol || got > want+tol {
			return nil, fmt.Errorf("core: delta adapt: untouched pair %v routes %v, demand is %v", p, got, want)
		}
	}
	for p := range prev {
		if !touchedSet[p] && d.Get(p.U, p.V) == 0 {
			return nil, fmt.Errorf("core: delta adapt: untouched pair %v has flow but no demand", p)
		}
	}
	if prevLoads == nil {
		prevLoads = prev.EdgeLoads(g)
	}
	if len(prevLoads) != g.NumEdges() {
		return nil, fmt.Errorf("core: delta adapt: %d prev loads for %d edges", len(prevLoads), g.NumEdges())
	}
	// Background = previous loads minus the touched pairs' old contribution.
	bg := make([]float64, len(prevLoads))
	copy(bg, prevLoads)
	for _, p := range touched {
		for _, wp := range prev[p] {
			for _, id := range wp.Path.EdgeIDs {
				bg[id] -= wp.Weight
			}
		}
	}
	for id := range bg {
		if bg[id] < 0 { // float cancellation noise
			bg[id] = 0
		}
	}
	// Solve the touched pairs only, against the fixed relative background.
	// The MWU is used even for tiny subproblems where the exact LP would be
	// optimal per-step: LP optima are extreme points that concentrate each
	// pair's flow on few paths, and delta epochs chain — a lumpy placement
	// becomes the next epoch's frozen background, compounding worse than the
	// MWU's smooth (averaged) placements do.
	dT := d.Restrict(func(p demand.Pair) bool { return touchedSet[p] })
	fresh := flow.New()
	if dT.SupportSize() > 0 {
		if !ps.Covers(dT) {
			return nil, fmt.Errorf("core: delta adapt: %w", mcf.ErrNoCandidates)
		}
		mwu := o.MWU
		base := make([]float64, len(bg))
		for id := range bg {
			base[id] = bg[id] / g.Edge(id).Capacity
		}
		mwu.BaseLoads = base
		if o.OnSolver != nil {
			o.OnSolver("delta-mwu")
		}
		var err error
		fresh, err = mcf.MinCongestionOnPathsCtx(ctx, g, ps.candidatesFor(dT), dT, &mwu)
		if err != nil {
			return nil, err
		}
	}
	// Merge: untouched entries carried over, touched pairs replaced. The
	// untouched slices are shared with prev — routings are immutable once
	// published.
	out := flow.New()
	for pair, wps := range prev {
		if !touchedSet[pair] {
			out[pair] = wps
		}
	}
	for pair, wps := range fresh {
		out[pair] = wps
	}
	// The fresh flow joins the background in sorted-pair order, the order
	// flow.Routing.EdgeLoads sums in, so the loads are reproducible bit for
	// bit.
	loads := bg
	for _, p := range dT.Support() {
		for _, wp := range fresh[p] {
			for _, id := range wp.Path.EdgeIDs {
				loads[id] += wp.Weight
			}
		}
	}
	cong := 0.0
	for id, l := range loads {
		if c := l / g.Edge(id).Capacity; c > cong {
			cong = c
		}
	}
	return &DeltaResult{Routing: out, EdgeLoads: loads, Congestion: cong}, nil
}
