// Package dynproc implements the dynamic deletion process at the heart of
// the paper's Main Lemma (Section 5.3), as an executable simulation.
//
// For a fixed demand, every sampled candidate path initially carries an
// equal share of its pair's demand. The process then walks the edges in a
// fixed order; whenever the current edge's congestion exceeds the allowed
// threshold, every path crossing it is deleted (its weight zeroed). The
// Main Lemma proves that, for special demands and thresholds O(1)·cong of
// the base oblivious routing, at least half of the demand survives except
// with probability exponentially small in the demand size — which is what
// makes the union bound over all demands work.
//
// Running the process empirically (experiment E7) exhibits exactly this
// concentration: the surviving fraction jumps to ~1 as the sample sparsity
// grows, and the bad patterns (Definition 5.11) recorded here are the
// objects the union bound counts.
package dynproc

import (
	"fmt"
	"sort"

	"sparseroute/internal/core"
	"sparseroute/internal/demand"
	"sparseroute/internal/flow"
)

// Result reports one run of the process.
type Result struct {
	// RoutedFraction is (surviving demand)/(total demand); weak routing
	// succeeds when it is >= 1/2 (Definition 5.4).
	RoutedFraction float64
	// Survivors is the subdemand d' that the surviving weights route.
	Survivors *demand.Demand
	// Routing carries the surviving weights (a routing of Survivors whose
	// congestion is at most Threshold by construction).
	Routing flow.Routing
	// DeletedAt[edgeID] is the total weight deleted while processing that
	// edge (the bad-pattern coordinates c_i of Definition 5.11).
	DeletedAt map[int]float64
	// Overcongested lists the edges that triggered deletions, in processing
	// order.
	Overcongested []int
	// Threshold echoes the congestion threshold used.
	Threshold float64
}

// Run executes the deletion process on the path system's sampled paths
// (multiplicities included, as in the proof) for demand d with the given
// relative congestion threshold. Edges are processed in increasing edge-ID
// order — any fixed order independent of the demand works, exactly as the
// proof requires.
func Run(ps *core.PathSystem, d *demand.Demand, threshold float64) (*Result, error) {
	if threshold <= 0 {
		return nil, fmt.Errorf("dynproc: threshold must be positive")
	}
	g := ps.Graph()
	type inst struct {
		pair   demand.Pair
		idx    int // index within the pair's sampled paths
		weight float64
	}
	var instances []inst
	support := d.Support()
	for _, p := range support {
		paths := ps.Paths(p.U, p.V)
		if len(paths) == 0 {
			return nil, fmt.Errorf("dynproc: pair %v has no sampled paths", p)
		}
		w := d.Get(p.U, p.V) / float64(len(paths))
		for i := range paths {
			instances = append(instances, inst{pair: p, idx: i, weight: w})
		}
	}
	// Index instances by edge for O(total path length) processing.
	byEdge := make(map[int][]int)
	for ii, in := range instances {
		for _, id := range ps.Paths(in.pair.U, in.pair.V)[in.idx].EdgeIDs {
			byEdge[id] = append(byEdge[id], ii)
		}
	}
	loads := make([]float64, g.NumEdges())
	for ii, in := range instances {
		_ = ii
		for _, id := range ps.Paths(in.pair.U, in.pair.V)[in.idx].EdgeIDs {
			loads[id] += in.weight
		}
	}
	res := &Result{DeletedAt: make(map[int]float64), Threshold: threshold}
	edgeIDs := make([]int, 0, len(byEdge))
	for id := range byEdge {
		edgeIDs = append(edgeIDs, id)
	}
	sort.Ints(edgeIDs)
	for _, id := range edgeIDs {
		if loads[id]/g.Edge(id).Capacity <= threshold {
			continue
		}
		res.Overcongested = append(res.Overcongested, id)
		for _, ii := range byEdge[id] {
			in := &instances[ii]
			if in.weight == 0 {
				continue
			}
			res.DeletedAt[id] += in.weight
			for _, eid := range ps.Paths(in.pair.U, in.pair.V)[in.idx].EdgeIDs {
				loads[eid] -= in.weight
			}
			in.weight = 0
		}
	}
	// Collect survivors.
	res.Survivors = demand.New()
	res.Routing = flow.New()
	var surviving float64
	for _, in := range instances {
		if in.weight > 0 {
			surviving += in.weight
			res.Survivors.Add(in.pair.U, in.pair.V, in.weight)
			res.Routing[in.pair] = append(res.Routing[in.pair], flow.WeightedPath{
				Path:   ps.Paths(in.pair.U, in.pair.V)[in.idx],
				Weight: in.weight,
			})
		}
	}
	if total := d.Size(); total > 0 {
		res.RoutedFraction = surviving / total
	}
	return res, nil
}

// patternEntry is one coordinate of an extracted bad pattern: the weight
// deleted while processing one edge.
type patternEntry struct {
	EdgeID  int
	Deleted float64
}

// extractBadPattern realizes Lemma 5.12 on a concrete run: when weak routing
// failed (RoutedFraction < 1/2), the per-edge deletion vector IS a bad
// pattern — nonnegative entries, each zero or at least the congestion
// threshold (an edge only triggers when its load exceeds the threshold, and
// deleting its paths removes at least that much weight), summing to more
// than half the demand. It returns the nonzero entries in edge order and
// whether the run certifies a bad pattern.
func extractBadPattern(res *Result, totalDemand float64) ([]patternEntry, bool) {
	var entries []patternEntry
	var ids []int
	for id := range res.DeletedAt {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var sum float64
	for _, id := range ids {
		w := res.DeletedAt[id]
		entries = append(entries, patternEntry{EdgeID: id, Deleted: w})
		sum += w
	}
	return entries, sum >= totalDemand/2
}

// badPatternStats summarizes the deletions of a run against Definition 5.11:
// the number of overcongested edges and the total deleted weight (a run with
// RoutedFraction < 1/2 certifies that at least one bad pattern occurred).
type badPatternStats struct {
	NonzeroEntries int
	TotalDeleted   float64
	MaxSingleEdge  float64
}

// patternStats extracts the bad-pattern summary from a run.
func patternStats(r *Result) badPatternStats {
	var s badPatternStats
	for _, w := range r.DeletedAt {
		s.NonzeroEntries++
		s.TotalDeleted += w
		if w > s.MaxSingleEdge {
			s.MaxSingleEdge = w
		}
	}
	return s
}

// routeByHalving is the executable weak-to-strong reduction (Lemma 5.8):
// repeatedly run the deletion process, commit the surviving routing, and
// recurse on the unrouted remainder, for at most maxRounds rounds. Whatever
// remains after the last round is routed on each pair's first sampled path
// (the reduction's "route the negligible tail arbitrarily" step). The
// returned routing routes d fully; its congestion is at most
// threshold · rounds + (tail congestion).
func routeByHalving(ps *core.PathSystem, d *demand.Demand, threshold float64, maxRounds int) (flow.Routing, int, error) {
	if maxRounds < 1 {
		return nil, 0, fmt.Errorf("dynproc: maxRounds must be >= 1")
	}
	remaining := d.Clone()
	total := flow.New()
	rounds := 0
	for rounds < maxRounds && remaining.Size() > 1e-12 {
		res, err := Run(ps, remaining, threshold)
		if err != nil {
			return nil, rounds, err
		}
		if res.Survivors.Size() <= 1e-12 {
			break // weak routing failed outright; fall to the tail
		}
		total = flow.Merge(total, res.Routing)
		remaining = demand.Sub(remaining, res.Survivors)
		rounds++
	}
	// Route the tail on first sampled paths.
	for _, p := range remaining.Support() {
		paths := ps.Paths(p.U, p.V)
		if len(paths) == 0 {
			return nil, rounds, fmt.Errorf("dynproc: pair %v has no sampled paths", p)
		}
		total[p] = append(total[p], flow.WeightedPath{Path: paths[0], Weight: remaining.Get(p.U, p.V)})
	}
	return total.Compact(), rounds, nil
}
