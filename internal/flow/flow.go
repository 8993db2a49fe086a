// Package flow represents fractional and integral routings: assignments of
// weighted paths to demand pairs (the paper's "routing R routes a demand d by
// assigning a weight to every path", Section 4). It provides the congestion
// and dilation accounting every experiment reports.
package flow

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"sparseroute/internal/demand"
	"sparseroute/internal/graph"
)

// WeightedPath is a path carrying an absolute amount of flow.
type WeightedPath struct {
	Path   graph.Path
	Weight float64
}

// Routing maps each demand pair to the weighted paths carrying its flow.
// Weights are absolute: for a routing of demand d, the weights of pair p sum
// to d(p).
type Routing map[demand.Pair][]WeightedPath

// New returns an empty routing.
func New() Routing { return make(Routing) }

// AddFlow adds `weight` units on path p for its endpoint pair.
func (r Routing) AddFlow(p graph.Path, weight float64) {
	if weight <= 0 {
		return
	}
	pair := demand.MakePair(p.Src, p.Dst)
	r[pair] = append(r[pair], WeightedPath{Path: p, Weight: weight})
}

// EdgeLoads returns the absolute load per edge ID. The pairs are summed in
// sorted order (demand.Support's), so the loads of one routing, and every
// congestion computed from them, are the same to the last bit on every call.
func (r Routing) EdgeLoads(g *graph.Graph) []float64 {
	loads := make([]float64, g.NumEdges())
	for _, p := range r.SortedPairs() {
		for _, wp := range r[p] {
			for _, id := range wp.Path.EdgeIDs {
				loads[id] += wp.Weight
			}
		}
	}
	return loads
}

// SortedPairs returns r's pairs ordered by U, then V (demand.Support's
// order). A caller whose random draws or float sums follow the pairs ranges
// over these instead of the map, so its result is a function of its seed.
func (r Routing) SortedPairs() []demand.Pair {
	out := make([]demand.Pair, 0, len(r))
	for p := range r {
		out = append(out, p)
	}
	slices.SortFunc(out, func(a, b demand.Pair) int {
		if c := cmp.Compare(a.U, b.U); c != 0 {
			return c
		}
		return cmp.Compare(a.V, b.V)
	})
	return out
}

// MaxCongestion returns the maximum relative edge congestion
// max_e load(e)/cap(e) — the paper's primary objective.
func (r Routing) MaxCongestion(g *graph.Graph) float64 {
	loads := r.EdgeLoads(g)
	var mx float64
	for id, l := range loads {
		if c := l / g.Edge(id).Capacity; c > mx {
			mx = c
		}
	}
	return mx
}

// Dilation returns the maximum hop length among paths with positive weight.
func (r Routing) Dilation() int {
	d := 0
	for _, wps := range r {
		for _, wp := range wps {
			if wp.Weight > 0 && wp.Path.Hops() > d {
				d = wp.Path.Hops()
			}
		}
	}
	return d
}

// TotalFlow returns the total routed amount Σ weights.
func (r Routing) TotalFlow() float64 {
	var s float64
	for _, wps := range r {
		for _, wp := range wps {
			s += wp.Weight
		}
	}
	return s
}

// flowFor returns the total weight routed for pair (u,v).
func (r Routing) flowFor(u, v int) float64 {
	var s float64
	for _, wp := range r[demand.MakePair(u, v)] {
		s += wp.Weight
	}
	return s
}

// Validate checks structural soundness: every path is a valid walk in g with
// endpoints matching its pair, and every weight is nonnegative.
func (r Routing) Validate(g *graph.Graph) error {
	for pair, wps := range r {
		for i, wp := range wps {
			if wp.Weight < 0 {
				return fmt.Errorf("flow: pair %v path %d has negative weight %v", pair, i, wp.Weight)
			}
			if got := demand.MakePair(wp.Path.Src, wp.Path.Dst); got != pair {
				return fmt.Errorf("flow: pair %v holds path with endpoints %v", pair, got)
			}
			if err := wp.Path.Validate(g); err != nil {
				return fmt.Errorf("flow: pair %v path %d invalid: %w", pair, i, err)
			}
		}
	}
	return nil
}

// ValidateRoutes checks that r routes exactly the demand d: weights per pair
// sum to d(pair) within tol, and no flow exists for zero-demand pairs.
func (r Routing) ValidateRoutes(g *graph.Graph, d *demand.Demand, tol float64) error {
	if err := r.Validate(g); err != nil {
		return err
	}
	for _, pair := range d.Support() {
		want := d.Get(pair.U, pair.V)
		got := r.flowFor(pair.U, pair.V)
		if math.Abs(got-want) > tol {
			return fmt.Errorf("flow: pair %v routes %v, demand is %v", pair, got, want)
		}
	}
	for pair := range r {
		if d.Get(pair.U, pair.V) == 0 && r.flowFor(pair.U, pair.V) > tol {
			return fmt.Errorf("flow: pair %v routes flow without demand", pair)
		}
	}
	return nil
}

// IsIntegral reports whether every path weight is an integer (within tol).
func (r Routing) IsIntegral(tol float64) bool {
	for _, wps := range r {
		for _, wp := range wps {
			if math.Abs(wp.Weight-math.Round(wp.Weight)) > tol {
				return false
			}
		}
	}
	return true
}

// scale returns a copy of r with all weights multiplied by f >= 0.
func (r Routing) scale(f float64) Routing {
	if f < 0 {
		panic("flow: negative scale")
	}
	out := New()
	for pair, wps := range r {
		for _, wp := range wps {
			if wp.Weight*f > 0 {
				out[pair] = append(out[pair], WeightedPath{Path: wp.Path, Weight: wp.Weight * f})
			}
		}
	}
	return out
}

// Merge returns the union routing carrying the flows of both arguments
// (Lemma 5.15's combined routing: congestion is subadditive under Merge).
func Merge(a, b Routing) Routing {
	out := New()
	for pair, wps := range a {
		out[pair] = append(out[pair], wps...)
	}
	for pair, wps := range b {
		out[pair] = append(out[pair], wps...)
	}
	return out
}

// Compact merges duplicate paths (same edge sequence) within each pair,
// summing their weights. Useful after averaging many MWU iterations.
func (r Routing) Compact() Routing {
	out := New()
	for pair, wps := range r {
		byKey := make(map[string]int)
		var merged []WeightedPath
		for _, wp := range wps {
			if wp.Weight <= 0 {
				continue
			}
			k := wp.Path.Key()
			if idx, ok := byKey[k]; ok {
				merged[idx].Weight += wp.Weight
			} else {
				byKey[k] = len(merged)
				merged = append(merged, wp)
			}
		}
		if len(merged) > 0 {
			out[pair] = merged
		}
	}
	return out
}

// HotEdge is one entry of the congestion diagnostic report.
type HotEdge struct {
	EdgeID     int
	U, V       int
	Load       float64
	Capacity   float64
	Congestion float64
}

// HotEdges returns the k most congested edges of the routing, most loaded
// first — the diagnostic a traffic engineer looks at first.
func (r Routing) HotEdges(g *graph.Graph, k int) []HotEdge {
	loads := r.EdgeLoads(g)
	entries := make([]HotEdge, 0, len(loads))
	for id, l := range loads {
		if l <= 0 {
			continue
		}
		e := g.Edge(id)
		entries = append(entries, HotEdge{
			EdgeID: id, U: e.U, V: e.V,
			Load: l, Capacity: e.Capacity, Congestion: l / e.Capacity,
		})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Congestion != entries[j].Congestion {
			return entries[i].Congestion > entries[j].Congestion
		}
		return entries[i].EdgeID < entries[j].EdgeID
	})
	if k > 0 && len(entries) > k {
		entries = entries[:k]
	}
	return entries
}

// SupportSize returns the total number of positive-weight paths.
func (r Routing) SupportSize() int {
	n := 0
	for _, wps := range r {
		for _, wp := range wps {
			if wp.Weight > 0 {
				n++
			}
		}
	}
	return n
}
