// Package rounding converts fractional routings into integral ones.
//
// Randomized rounding is the paper's Lemma 6.3: sampling each packet's path
// from the fractional weights yields an integral routing with congestion
// O(cong) + O(log n) with nonzero probability, which Corollary 6.4 uses to
// transfer every fractional semi-oblivious guarantee to the integral
// setting. LocalSearch is the engineering companion: single-packet moves
// that monotonically reduce a quadratic congestion potential.
package rounding

import (
	"fmt"
	"math/rand/v2"

	"sparseroute/internal/demand"
	"sparseroute/internal/flow"
	"sparseroute/internal/graph"
)

// round randomly rounds the fractional routing r of the integral demand d:
// each of the d(u,v) unit packets independently picks one of the pair's
// paths with probability proportional to its fractional weight (Lemma 6.3).
func round(g *graph.Graph, r flow.Routing, d *demand.Demand, rng *rand.Rand) (flow.Routing, error) {
	if !d.IsIntegral() {
		return nil, fmt.Errorf("rounding: demand is not integral")
	}
	out := flow.New()
	for _, pair := range d.Support() {
		wps := r[pair]
		if len(wps) == 0 {
			return nil, fmt.Errorf("rounding: pair %v has no fractional flow", pair)
		}
		var total float64
		for _, wp := range wps {
			total += wp.Weight
		}
		if total <= 0 {
			return nil, fmt.Errorf("rounding: pair %v has zero fractional flow", pair)
		}
		packets := int(d.Get(pair.U, pair.V) + 0.5)
		counts := make([]int, len(wps))
		for p := 0; p < packets; p++ {
			x := rng.Float64() * total
			idx := len(wps) - 1
			for j, wp := range wps {
				x -= wp.Weight
				if x <= 0 {
					idx = j
					break
				}
			}
			counts[idx]++
		}
		for j, c := range counts {
			if c > 0 {
				out[pair] = append(out[pair], flow.WeightedPath{Path: wps[j].Path, Weight: float64(c)})
			}
		}
	}
	return out, nil
}

// RoundBest performs `trials` independent roundings and returns the one with
// the smallest maximum congestion — the standard derandomization-by-repetition
// of the Lemma 6.3 existence argument.
func RoundBest(g *graph.Graph, r flow.Routing, d *demand.Demand, trials int, rng *rand.Rand) (flow.Routing, error) {
	if trials < 1 {
		trials = 1
	}
	var best flow.Routing
	bestCong := 0.0
	for i := 0; i < trials; i++ {
		cand, err := round(g, r, d, rng)
		if err != nil {
			return nil, err
		}
		c := cand.MaxCongestion(g)
		if best == nil || c < bestCong {
			best = cand
			bestCong = c
		}
	}
	return best, nil
}

// LocalSearch improves an integral routing by single-packet moves among the
// candidate paths of each pair, greedily decreasing the quadratic potential
// Σ_e (load_e/cap_e)², which strictly decreases hotspot congestion. It
// terminates after maxPasses sweeps or at a local optimum. The input routing
// must be integral on d's support; candidates must include every used path's
// pair.
func LocalSearch(g *graph.Graph, r flow.Routing, cand map[demand.Pair][]graph.Path, maxPasses int) flow.Routing {
	loads := r.EdgeLoads(g)
	// counts[pair][j] = packets of pair on candidate j; paths not among the
	// candidates keep their flow frozen (they contribute to loads only).
	type state struct {
		pair   demand.Pair
		counts []int
	}
	var states []state
	frozen := flow.New()
	for _, pair := range r.SortedPairs() {
		wps := r[pair]
		cs := cand[pair]
		keyOf := make(map[string]int, len(cs))
		for j, p := range cs {
			keyOf[p.Key()] = j
		}
		counts := make([]int, len(cs))
		for _, wp := range wps {
			if j, ok := keyOf[wp.Path.Key()]; ok {
				counts[j] += int(wp.Weight + 0.5)
			} else {
				frozen[pair] = append(frozen[pair], wp)
			}
		}
		states = append(states, state{pair: pair, counts: counts})
	}
	caps := make([]float64, g.NumEdges())
	for i := range caps {
		caps[i] = g.Edge(i).Capacity
	}
	// Delta of moving one packet from path A to B:
	// Σ_{e in B\A} ((l+1)²-l²)/cap² - Σ_{e in A\B} (l²-(l-1)²)/cap².
	moveDelta := func(from, to graph.Path) float64 {
		inFrom := make(map[int]bool, len(from.EdgeIDs))
		for _, id := range from.EdgeIDs {
			inFrom[id] = true
		}
		var delta float64
		for _, id := range to.EdgeIDs {
			if inFrom[id] {
				delete(inFrom, id)
				continue
			}
			delta += (2*loads[id] + 1) / (caps[id] * caps[id])
		}
		// A \ B in path order, not map order, so the sum rounds the same way
		// on every call.
		for _, id := range from.EdgeIDs {
			if inFrom[id] {
				delete(inFrom, id)
				delta -= (2*loads[id] - 1) / (caps[id] * caps[id])
			}
		}
		return delta
	}
	apply := func(from, to graph.Path) {
		for _, id := range from.EdgeIDs {
			loads[id]--
		}
		for _, id := range to.EdgeIDs {
			loads[id]++
		}
	}
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for si := range states {
			st := &states[si]
			cs := cand[st.pair]
			for j := range st.counts {
				if st.counts[j] == 0 {
					continue
				}
				best, bestDelta := -1, -1e-9
				for k := range cs {
					if k == j {
						continue
					}
					if d := moveDelta(cs[j], cs[k]); d < bestDelta {
						best, bestDelta = k, d
					}
				}
				if best >= 0 {
					st.counts[j]--
					st.counts[best]++
					apply(cs[j], cs[best])
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	out := flow.New()
	for pair, wps := range frozen {
		out[pair] = append(out[pair], wps...)
	}
	for _, st := range states {
		for j, c := range st.counts {
			if c > 0 {
				out[st.pair] = append(out[st.pair], flow.WeightedPath{Path: cand[st.pair][j], Weight: float64(c)})
			}
		}
	}
	return out
}
