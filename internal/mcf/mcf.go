// Package mcf solves minimum-congestion multicommodity flow problems, the
// computational heart of the reproduction:
//
//   - the *offline optimum* OPT(d) every competitive ratio is measured
//     against (Stage 5 of the paper's protocol), via an exact edge-based LP
//     for small instances and a multiplicative-weights (1+ε)-style
//     approximation for larger ones;
//   - the *semi-oblivious adaptation step* (Stage 4): minimum congestion
//     restricted to a fixed candidate path system, via an exact path-based LP
//     or the same MWU scheme with the oracle restricted to candidates.
//
// The MWU scheme is the classical fictitious-play/experts reduction: edges
// are experts, each round routes every commodity on a lightest path under
// exponential-in-load edge lengths, and the final routing is the average of
// all rounds.
package mcf

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"sparseroute/internal/demand"
	"sparseroute/internal/flow"
	"sparseroute/internal/graph"
	"sparseroute/internal/lp"
)

// Options tunes the approximate solvers.
type Options struct {
	// Iterations is the number of MWU rounds (default 256).
	Iterations int
	// Eta is the exponential learning rate (default 1.0).
	Eta float64
	// Progress, when non-nil, is called from the MWU loop with the current
	// round count and the congestion of the averaged routing built so far
	// (cum/round is exactly the edge load of averaging the first `round`
	// rounds, so the estimate is free — no extra passes). Called every
	// ProgressEvery rounds and once after the final round; must be fast and
	// must not retain or mutate solver state.
	Progress func(round int, congestion float64)
	// ProgressEvery is the round stride between Progress calls (default 16).
	ProgressEvery int
	// Warm, when non-nil, seeds MinCongestionOnPathsCtx from a prior routing's
	// per-pair weight distributions instead of the uniform cold start: the
	// prior is counted as Warm.Rounds virtual MWU rounds already played, so a
	// near-optimal prior (the previous epoch's solution on a close demand
	// matrix) lets far fewer fresh Iterations reach the same congestion.
	// Pairs absent from the prior (or whose prior paths are no longer
	// candidates) start cold; the returned routing still routes d exactly.
	Warm *WarmStart
	// BaseLoads, when non-nil, is a fixed background of relative edge loads
	// (load divided by capacity, indexed by edge ID, length NumEdges) the
	// solve must route around but does not control — the untouched pairs'
	// contribution during an incremental delta solve. Path lengths and the
	// congestion Progress reports include the background; the returned
	// routing carries only the solved pairs' flow.
	BaseLoads []float64
}

// WarmStart is the warm-start prior for MinCongestionOnPathsCtx: per-pair
// weight distributions over candidate paths, keyed by graph.Path.Key. Only
// the ratios matter — weights need not be normalized. Build one from a prior
// routing with core.CandidateWeights.
type WarmStart struct {
	// Weights maps each pair to its prior path-key -> weight distribution.
	Weights map[demand.Pair]map[string]float64
	// Rounds is the virtual round count the prior is worth relative to the
	// fresh Iterations; higher values trust the prior more. Default 256 (the
	// default Iterations), so a warm solve with Iterations: 64 is a 4:1
	// blend of prior and fresh play.
	Rounds int
}

func (o *Options) withDefaults() Options {
	out := Options{Iterations: 256, Eta: 1.0, ProgressEvery: 16}
	if o != nil {
		if o.Iterations > 0 {
			out.Iterations = o.Iterations
		}
		if o.Eta > 0 {
			out.Eta = o.Eta
		}
		out.Progress = o.Progress
		if o.ProgressEvery > 0 {
			out.ProgressEvery = o.ProgressEvery
		}
		out.Warm = o.Warm
		out.BaseLoads = o.BaseLoads
	}
	return out
}

// warmRounds returns the virtual round count of the warm prior (0 when no
// warm start is configured).
func (o *Options) warmRounds() float64 {
	if o.Warm == nil {
		return 0
	}
	if o.Warm.Rounds > 0 {
		return float64(o.Warm.Rounds)
	}
	return 256
}

// ErrNoCandidates is returned when a demand pair has no candidate path.
var ErrNoCandidates = errors.New("mcf: demand pair has no candidate paths")

// MinCongestionOnPathsCtx approximately minimizes the maximum relative edge
// congestion of routing d using only the candidate paths in cand. This is
// the semi-oblivious rate-adaptation step. The returned routing routes d
// exactly; its MaxCongestion approaches the restricted optimum as Iterations
// grows. The MWU loop polls ctx every round and aborts with ctx.Err() when it
// is canceled, so a deadline-bound caller stops the solve instead of
// orphaning it.
//
// With opt.Warm set, pairs present in the prior start with Warm.Rounds
// virtual rounds already distributed per the prior (their cumulative loads
// included), so the averaging that defines the result blends prior and
// fresh play; each pair's final weights are normalized by its own total
// round count, so partially seeded inputs still route d exactly. With
// opt.BaseLoads set, the fixed background is added to the per-round state
// when computing path lengths and reported congestion, so the solve routes
// around flow it does not control.
func MinCongestionOnPathsCtx(ctx context.Context, g *graph.Graph, cand map[demand.Pair][]graph.Path, d *demand.Demand, opt *Options) (flow.Routing, error) {
	o := opt.withDefaults()
	support := d.Support()
	nPaths, nRefs := 0, 0
	for _, p := range support {
		paths := cand[p]
		if len(paths) == 0 {
			return nil, fmt.Errorf("%w: %v", ErrNoCandidates, p)
		}
		nPaths += len(paths)
		for _, path := range paths {
			nRefs += len(path.EdgeIDs)
		}
	}
	base := o.BaseLoads
	if base != nil && len(base) != g.NumEdges() {
		return nil, fmt.Errorf("mcf: %d base loads for %d edges", len(base), g.NumEdges())
	}

	// Compile the instance into flat arrays for this call only: pair i owns
	// paths pairOff[i]..pairOff[i+1], path k owns edgeRef[pathOff[k]:
	// pathOff[k+1]], both in support x candidate x stored-edge order, so the
	// round loop below touches no map, no graph.Path and no graph.Edge.
	// growth[r] is the factor exp(eta*amt/cap) by which one play of pair i
	// multiplies the length of the edge under ref r.
	caps := make([]float64, g.NumEdges())
	for id := range caps {
		caps[id] = g.Edge(id).Capacity
	}
	pairOff := make([]int32, 1, len(support)+1)
	pathOff := make([]int32, 1, nPaths+1)
	edgeRef := make([]int32, 0, nRefs)
	growth := make([]float64, 0, nRefs)
	amts := make([]float64, len(support))
	for i, p := range support {
		amts[i] = d.Get(p.U, p.V)
		for _, path := range cand[p] {
			for _, id := range path.EdgeIDs {
				edgeRef = append(edgeRef, int32(id))
				growth = append(growth, math.Exp(o.Eta*amts[i]/caps[id]))
			}
			pathOff = append(pathOff, int32(len(edgeRef)))
		}
		pairOff = append(pairOff, int32(len(pathOff)-1))
	}
	cum := make([]float64, len(caps))    // cumulative relative load per edge
	length := make([]float64, len(caps)) // this round's MWU length per edge
	chosen := make([]float64, nPaths)    // rounds (fresh or virtual) each path was played
	// seeded[i] is the virtual rounds pair i was warm-seeded with (its final
	// weight denominator is Iterations + seeded[i]); warmAny is the prior's
	// round count when at least one pair was seeded, the global round offset
	// the averaged state represents.
	seeded := make([]float64, len(support))
	warmAny := 0.0
	if o.Warm != nil {
		for i, p := range support {
			prior := o.Warm.Weights[p]
			if len(prior) == 0 {
				continue
			}
			w := chosen[pairOff[i]:pairOff[i+1]]
			var tot float64
			for j, path := range cand[p] {
				if pw := prior[path.Key()]; pw > 0 {
					w[j] = pw
					tot += pw
				}
			}
			if tot <= 0 {
				continue // prior paths are no longer candidates: cold start
			}
			rounds := o.warmRounds()
			for j, pw := range w {
				if pw <= 0 {
					continue
				}
				cnt := rounds * pw / tot
				w[j] = cnt
				k := pairOff[i] + int32(j)
				for _, id := range edgeRef[pathOff[k]:pathOff[k+1]] {
					cum[id] += cnt * amts[i] / caps[id]
				}
			}
			seeded[i] = rounds
			warmAny = rounds
		}
	}

	// Arithmetic-order guarantee: every float below comes from the same
	// expression, evaluated in the same order, as in
	// referenceMinCongestionOnPaths (mcf_test.go) — "/ caps[id]" rather than
	// a precomputed reciprocal, path sums in stored edge order, an explicit
	// float64() wherever a multiply-add could be fused — so routings and
	// Progress samples equal the reference's bit for bit on every GOARCH.
	// Each round starts from exact lengths exp(eta*(load-max))/cap; within
	// the round a play multiplies the lengths under its path by growth,
	// exp(a+b) = exp(a)*exp(b), so rounding drift lives one round at most.
	for iter := 0; iter < o.Iterations; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// rounds the cumulative state represents so far; the background is
		// scaled by rounds+1 so it stays visible even before any fresh play
		// (slightly overweighted early, exact in the limit).
		rounds := float64(iter) + warmAny
		maxCum := 0.0
		for id, c := range cum {
			if base != nil {
				c += float64((rounds + 1) * base[id])
			}
			length[id] = c
			if c > maxCum {
				maxCum = c
			}
		}
		if o.Progress != nil && iter > 0 && iter%o.ProgressEvery == 0 && rounds > 0 {
			o.Progress(iter, congestionEstimate(cum, base, rounds))
		}
		// Lengths exp(eta*(load-max))/cap, once per edge rather than once per
		// edge occurrence.
		for id, c := range length {
			length[id] = math.Exp(o.Eta*(c-maxCum)) / caps[id]
		}
		for i, amt := range amts {
			// Lightest candidate; the first strict minimum wins.
			best, bestLen := pairOff[i], math.Inf(1)
			for k := pairOff[i]; k < pairOff[i+1]; k++ {
				var l float64
				for _, id := range edgeRef[pathOff[k]:pathOff[k+1]] {
					l += length[id]
				}
				if l < bestLen {
					best, bestLen = k, l
				}
			}
			chosen[best]++
			for r := pathOff[best]; r < pathOff[best+1]; r++ {
				id := edgeRef[r]
				cum[id] += amt / caps[id]
				length[id] *= growth[r]
			}
		}
	}
	reportFinal(cum, &o, warmAny)
	out := make(flow.Routing, len(support))
	for i, p := range support {
		counts := chosen[pairOff[i]:pairOff[i+1]]
		played := 0
		for _, cnt := range counts {
			if cnt > 0 {
				played++
			}
		}
		total := float64(o.Iterations) + seeded[i]
		wps := make([]flow.WeightedPath, 0, played)
		for j, cnt := range counts {
			if cnt > 0 {
				wps = append(wps, flow.WeightedPath{
					Path:   cand[p][j],
					Weight: amts[i] * cnt / total,
				})
			}
		}
		out[p] = wps
	}
	return out, nil
}

// congestionEstimate is the max relative load of averaging the state in cum
// (plus the per-round background) over `rounds` rounds. With a partially
// seeded warm start the estimate is approximate (pairs carry different round
// counts); the returned routing's true congestion is exact regardless.
func congestionEstimate(cum, base []float64, rounds float64) float64 {
	mx := 0.0
	for id, c := range cum {
		if base != nil {
			c += float64(rounds * base[id])
		}
		if c > mx {
			mx = c
		}
	}
	return mx / rounds
}

// reportFinal fires the last Progress sample after the MWU loop: cum holds
// the full run's cumulative relative loads (warm rounds included), so the
// averaged estimate is the congestion of the routing about to be returned.
func reportFinal(cum []float64, o *Options, warm float64) {
	rounds := float64(o.Iterations) + warm
	if o.Progress == nil || rounds == 0 {
		return
	}
	o.Progress(o.Iterations, congestionEstimate(cum, o.BaseLoads, rounds))
}

// MinCongestionOnPathsExactCtx solves the restricted problem of
// MinCongestionOnPathsCtx exactly with the simplex solver. Intended for
// small instances (≤ a few hundred candidate paths); larger inputs should
// use MinCongestionOnPathsCtx. The simplex pivots poll ctx and abort with
// ctx.Err() when it is canceled.
func MinCongestionOnPathsExactCtx(ctx context.Context, g *graph.Graph, cand map[demand.Pair][]graph.Path, d *demand.Demand) (flow.Routing, error) {
	support := d.Support()
	// Variable layout: one per (pair, candidate), then z last.
	type varRef struct {
		pair demand.Pair
		j    int
	}
	var vars []varRef
	index := make(map[demand.Pair]int) // first variable index of the pair
	for _, p := range support {
		if len(cand[p]) == 0 {
			return nil, fmt.Errorf("%w: %v", ErrNoCandidates, p)
		}
		index[p] = len(vars)
		for j := range cand[p] {
			vars = append(vars, varRef{pair: p, j: j})
		}
	}
	n := len(vars) + 1
	zCol := len(vars)
	prob := lp.Problem{C: make([]float64, n)}
	prob.C[zCol] = 1
	// Demand equalities.
	for _, p := range support {
		row := make([]float64, n)
		for j := range cand[p] {
			row[index[p]+j] = 1
		}
		prob.A = append(prob.A, row)
		prob.B = append(prob.B, d.Get(p.U, p.V))
		prob.Rel = append(prob.Rel, lp.EQ)
	}
	// Edge capacity rows: Σ x_(paths through e) - cap_e z <= 0. Only edges
	// actually used by some candidate need a row.
	edgeRows := make(map[int][]float64)
	for vi, vr := range vars {
		for _, id := range cand[vr.pair][vr.j].EdgeIDs {
			row, ok := edgeRows[id]
			if !ok {
				row = make([]float64, n)
				row[zCol] = -g.Edge(id).Capacity
				edgeRows[id] = row
			}
			row[vi]++
		}
	}
	for id := 0; id < g.NumEdges(); id++ {
		if row, ok := edgeRows[id]; ok {
			prob.A = append(prob.A, row)
			prob.B = append(prob.B, 0)
			prob.Rel = append(prob.Rel, lp.LE)
		}
	}
	sol, err := prob.SolveCtx(ctx)
	if err != nil {
		return nil, fmt.Errorf("mcf: exact adaptation LP failed: %w", err)
	}
	out := flow.New()
	for vi, vr := range vars {
		if sol.X[vi] > 1e-12 {
			out[vr.pair] = append(out[vr.pair], flow.WeightedPath{Path: cand[vr.pair][vr.j], Weight: sol.X[vi]})
		}
	}
	if err := renormalizeToDemand(out, support, d); err != nil {
		return nil, err
	}
	return out, nil
}

// renormalizeToDemand rescales each pair's kept weights to sum to exactly
// d(p). Dropping near-zero LP weights (≤ 1e-12) would otherwise leave the
// routing slightly under-routing d, breaking the "routes d exactly" contract;
// a pair whose mass was dropped entirely is an error rather than a silent
// zero-routing.
func renormalizeToDemand(out flow.Routing, support []demand.Pair, d *demand.Demand) error {
	for _, p := range support {
		want := d.Get(p.U, p.V)
		if want <= 0 {
			continue
		}
		var got float64
		for _, wp := range out[p] {
			got += wp.Weight
		}
		if got <= 0 {
			return fmt.Errorf("mcf: exact adaptation lost all weight for pair %v", p)
		}
		if got == want {
			continue
		}
		scale := want / got
		for i := range out[p] {
			out[p][i].Weight *= scale
		}
	}
	return nil
}

// ApproxOptCongestionCtx approximately computes the unrestricted offline
// optimum: the minimum achievable maximum relative congestion over all
// (fractional, simple-path) routings of d, returning a routing witnessing it.
// The oracle is Dijkstra under the MWU lengths, so the result converges to
// the true fractional optimum. The MWU loop polls ctx every round and aborts
// with ctx.Err() when it is canceled.
func ApproxOptCongestionCtx(ctx context.Context, g *graph.Graph, d *demand.Demand, opt *Options) (flow.Routing, error) {
	o := opt.withDefaults()
	support := d.Support()
	cum := make([]float64, g.NumEdges())
	// chosen[pair] maps path key -> (path, count).
	type pc struct {
		path  graph.Path
		count float64
	}
	chosen := make(map[demand.Pair]map[string]*pc, len(support))
	for _, p := range support {
		chosen[p] = make(map[string]*pc)
	}
	lengths := make([]float64, g.NumEdges())
	for iter := 0; iter < o.Iterations; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		maxCum := 0.0
		for _, c := range cum {
			if c > maxCum {
				maxCum = c
			}
		}
		if o.Progress != nil && iter > 0 && iter%o.ProgressEvery == 0 {
			o.Progress(iter, maxCum/float64(iter))
		}
		for id := range lengths {
			lengths[id] = math.Exp(o.Eta*(cum[id]-maxCum))/g.Edge(id).Capacity + 1e-12
		}
		for _, p := range support {
			path, err := g.LightestPath(p.U, p.V, lengths)
			if err != nil {
				return nil, fmt.Errorf("mcf: pair %v disconnected: %w", p, err)
			}
			k := path.Key()
			if entry, ok := chosen[p][k]; ok {
				entry.count++
			} else {
				chosen[p][k] = &pc{path: path, count: 1}
			}
			amt := d.Get(p.U, p.V)
			for _, id := range path.EdgeIDs {
				cum[id] += amt / g.Edge(id).Capacity
			}
		}
	}
	reportFinal(cum, &o, 0)
	out := flow.New()
	for _, p := range support {
		amt := d.Get(p.U, p.V)
		// Emit in sorted path-key order: map iteration order would make the
		// routing's list order (and anything hashed from it) vary run to run.
		keys := make([]string, 0, len(chosen[p]))
		for k := range chosen[p] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			entry := chosen[p][k]
			out[p] = append(out[p], flow.WeightedPath{
				Path:   entry.path,
				Weight: amt * entry.count / float64(o.Iterations),
			})
		}
	}
	return out, nil
}

// OptimalCongestionExactCtx returns the exact minimum maximum relative
// congestion for routing d in g, via the edge-based multicommodity-flow LP
// (directed arc variables per commodity). Exponential in nothing, but the LP
// has |supp(d)|·2m variables: use only on small instances. The simplex
// pivots poll ctx and abort with ctx.Err() when it is canceled, so
// deadline-bound callers cancel the edge-based LP too.
func OptimalCongestionExactCtx(ctx context.Context, g *graph.Graph, d *demand.Demand) (float64, error) {
	support := d.Support()
	k := len(support)
	if k == 0 {
		return 0, nil
	}
	m := g.NumEdges()
	nV := g.NumVertices()
	// Variables: for commodity i, arcs 2m (forward=2e, backward=2e+1), then z.
	n := k*2*m + 1
	zCol := k * 2 * m
	arcVar := func(i, e, dir int) int { return i*2*m + 2*e + dir }
	prob := lp.Problem{C: make([]float64, n)}
	prob.C[zCol] = 1
	// Conservation: for each commodity i and vertex v:
	// out(v) - in(v) = d_i at source, -d_i at sink, 0 elsewhere.
	for i, p := range support {
		amt := d.Get(p.U, p.V)
		for v := 0; v < nV; v++ {
			row := make([]float64, n)
			nonzero := false
			for _, id := range g.Incident(v) {
				e := g.Edge(id)
				if e.U == v {
					row[arcVar(i, id, 0)] += 1 // forward leaves U
					row[arcVar(i, id, 1)] -= 1
				} else {
					row[arcVar(i, id, 0)] -= 1
					row[arcVar(i, id, 1)] += 1
				}
				nonzero = true
			}
			if !nonzero && v != p.U && v != p.V {
				continue
			}
			var rhs float64
			switch v {
			case p.U:
				rhs = amt
			case p.V:
				rhs = -amt
			}
			prob.A = append(prob.A, row)
			prob.B = append(prob.B, rhs)
			prob.Rel = append(prob.Rel, lp.EQ)
		}
	}
	// Capacity: Σ_i (fwd + bwd) - cap z <= 0 per edge.
	for e := 0; e < m; e++ {
		row := make([]float64, n)
		for i := 0; i < k; i++ {
			row[arcVar(i, e, 0)] = 1
			row[arcVar(i, e, 1)] = 1
		}
		row[zCol] = -g.Edge(e).Capacity
		prob.A = append(prob.A, row)
		prob.B = append(prob.B, 0)
		prob.Rel = append(prob.Rel, lp.LE)
	}
	sol, err := prob.SolveCtx(ctx)
	if err != nil {
		return 0, fmt.Errorf("mcf: exact OPT LP failed: %w", err)
	}
	return sol.Value, nil
}

// DualLowerBound returns a certified lower bound on the optimal congestion
// from LP duality: for ANY nonnegative edge lengths ℓ,
//
//	OPT(d) >= Σ_p d(p)·dist_ℓ(p) / Σ_e ℓ_e·cap_e,
//
// because any routing must pay at least dist_ℓ(p) of ℓ-length per unit of
// demand, and the total ℓ-weighted capacity available per unit of congestion
// is the denominator. Good length functions (e.g. the exponential lengths an
// MWU run ends with) make the bound tight.
func DualLowerBound(g *graph.Graph, d *demand.Demand, lengths []float64) (float64, error) {
	if len(lengths) != g.NumEdges() {
		return 0, fmt.Errorf("mcf: %d lengths for %d edges", len(lengths), g.NumEdges())
	}
	var denom float64
	for _, e := range g.Edges() {
		l := lengths[e.ID]
		if l < 0 {
			return 0, fmt.Errorf("mcf: negative length on edge %d", e.ID)
		}
		denom += float64(l * e.Capacity)
	}
	if denom <= 0 {
		return 0, nil
	}
	// One Dijkstra per distinct source.
	dists := make(map[int][]float64)
	var num float64
	for _, p := range d.Support() {
		dist, ok := dists[p.U]
		if !ok {
			dist, _ = g.Dijkstra(p.U, lengths)
			dists[p.U] = dist
		}
		if math.IsInf(dist[p.V], 1) {
			return 0, fmt.Errorf("mcf: pair %v disconnected", p)
		}
		num += float64(d.Get(p.U, p.V) * dist[p.V])
	}
	return num / denom, nil
}

// CertifiedOpt couples the MWU upper bound with the dual lower bound.
type CertifiedOpt struct {
	Routing flow.Routing
	// Upper is the measured congestion of Routing (an achievable value, so
	// an upper bound on OPT); Lower is the dual certificate (OPT >= Lower).
	Upper, Lower float64
}

// Gap returns Upper/Lower, the certified approximation factor (1 = exact).
func (c *CertifiedOpt) Gap() float64 {
	if c.Lower <= 0 {
		return math.Inf(1)
	}
	return c.Upper / c.Lower
}

// ApproxOptWithCertificate runs the MWU OPT solver and certifies its result:
// the returned interval [Lower, Upper] provably contains the true optimal
// congestion. The dual lengths are the exponential penalties the MWU run
// ends with — exactly the duality view that makes multiplicative weights
// solve the LP.
func ApproxOptWithCertificate(g *graph.Graph, d *demand.Demand, opt *Options) (*CertifiedOpt, error) {
	o := opt.withDefaults()
	routing, err := ApproxOptCongestionCtx(context.Background(), g, d, &o)
	if err != nil {
		return nil, err
	}
	upper := routing.MaxCongestion(g)
	// Rebuild the final exponential lengths from the achieved loads.
	loads := routing.EdgeLoads(g)
	maxCong := 0.0
	congs := make([]float64, g.NumEdges())
	for id := range congs {
		congs[id] = loads[id] / g.Edge(id).Capacity
		if congs[id] > maxCong {
			maxCong = congs[id]
		}
	}
	lengths := make([]float64, g.NumEdges())
	for id := range lengths {
		lengths[id] = math.Exp(o.Eta*8*(congs[id]-maxCong)) / g.Edge(id).Capacity
	}
	lower, err := DualLowerBound(g, d, lengths)
	if err != nil {
		return nil, err
	}
	// The trivial distance bound can be stronger on light instances.
	if alt := shortestPathLowerBound(g, d); alt > lower {
		lower = alt
	}
	if lower > upper { // numerically impossible interval: clamp
		lower = upper
	}
	return &CertifiedOpt{Routing: routing, Upper: upper, Lower: lower}, nil
}

// shortestPathLowerBound returns the universal congestion lower bound
// Σ_p d(p)·hopdist(p) / Σ_e cap(e): every routing must place at least
// d(p)·dist(p) units of load, spread over the total capacity (cf. the
// bounded-congestion Lemma 5.16).
func shortestPathLowerBound(g *graph.Graph, d *demand.Demand) float64 {
	totalCap := g.TotalCapacity()
	if totalCap == 0 {
		return 0
	}
	// One BFS per distinct source.
	dists := make(map[int][]int)
	var loadLB float64
	for _, p := range d.Support() {
		dist, ok := dists[p.U]
		if !ok {
			dist, _ = g.BFS(p.U)
			dists[p.U] = dist
		}
		if dist[p.V] > 0 {
			loadLB += float64(d.Get(p.U, p.V) * float64(dist[p.V]))
		}
	}
	return loadLB / totalCap
}
