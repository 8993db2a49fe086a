package core

import (
	"fmt"

	"sparseroute/internal/demand"
	"sparseroute/internal/flow"
	"sparseroute/internal/graph"
)

// adaptViaBuckets routes d through the executable special-to-general
// reduction of Lemma 5.9: split the demand into power-of-two ratio buckets
// (ratio = demand over sampled path count, the quantity Definition 5.5's
// special demands pin down), adapt each bucket independently, and merge the
// routings. Congestion is subadditive over buckets (Lemma 5.15), so the
// merged congestion is at most (number of buckets) times the worst bucket —
// the logarithmic loss the reduction pays.
//
// Direct Adapt is at least as good on any single demand; this method exists
// to make the reduction measurable (its overhead shows up in tests and can
// be compared against the paper's O(log) prediction).
func (ps *PathSystem) adaptViaBuckets(d *demand.Demand, opt *AdaptOptions, maxBuckets int) (flow.Routing, int, error) {
	if maxBuckets < 1 {
		maxBuckets = 2 * 32 // plenty for float ratios in practice
	}
	if !ps.Covers(d) {
		return nil, 0, fmt.Errorf("core: bucketing reduction needs full coverage")
	}
	buckets := d.Buckets(func(p demand.Pair) int { return ps.NumSampled(p) }, maxBuckets)
	merged := flow.New()
	for _, b := range buckets {
		r, err := ps.Adapt(b, opt)
		if err != nil {
			return nil, 0, err
		}
		merged = flow.Merge(merged, r)
	}
	return merged.Compact(), len(buckets), nil
}

// auxiliaryGraph is the Corollary 6.2 construction: for every requested
// pair (u, v), two fresh vertices a and b joined to u and v by unit edges.
// The min cut between a and b is exactly 1, so an (R+λ)-statement on the
// auxiliary graph specializes to an (R+1)-statement, which the corollary
// maps back to the original graph by stripping the two bridge edges.
type auxiliaryGraph struct {
	// G is the augmented graph: the original vertices 0..n-1 plus two
	// auxiliary vertices per pair.
	G *graph.Graph
	// AuxPair[i] is the auxiliary (a, b) pair standing in for Pairs[i].
	Pairs   []demand.Pair
	AuxPair []demand.Pair
	// bridge[auxVertex] is the edge joining the auxiliary vertex to its
	// original endpoint.
	bridge map[int]int
	orig   map[int]int // auxVertex -> original endpoint
}

// buildAuxiliaryGraph augments g for the given pairs.
func buildAuxiliaryGraph(g *graph.Graph, pairs []demand.Pair) (*auxiliaryGraph, error) {
	n := g.NumVertices()
	aug := graph.New(n + 2*len(pairs))
	for _, e := range g.Edges() {
		aug.AddEdge(e.U, e.V, e.Capacity)
	}
	ax := &auxiliaryGraph{G: aug, bridge: make(map[int]int), orig: make(map[int]int)}
	for i, p := range pairs {
		a := n + 2*i
		b := n + 2*i + 1
		ea := aug.AddUnitEdge(a, p.U)
		eb := aug.AddUnitEdge(b, p.V)
		ax.Pairs = append(ax.Pairs, p)
		ax.AuxPair = append(ax.AuxPair, demand.MakePair(a, b))
		ax.bridge[a] = ea
		ax.bridge[b] = eb
		ax.orig[a] = p.U
		ax.orig[b] = p.V
	}
	return ax, nil
}

// projectPath maps a path between two auxiliary vertices back to the
// original graph by stripping the two bridge edges (the Corollary 6.2
// back-mapping).
func (ax *auxiliaryGraph) projectPath(p graph.Path) (graph.Path, error) {
	ua, ok1 := ax.orig[p.Src]
	vb, ok2 := ax.orig[p.Dst]
	if !ok1 || !ok2 {
		return graph.Path{}, fmt.Errorf("core: path endpoints (%d,%d) are not auxiliary vertices", p.Src, p.Dst)
	}
	if len(p.EdgeIDs) < 2 {
		return graph.Path{}, fmt.Errorf("core: auxiliary path too short")
	}
	if p.EdgeIDs[0] != ax.bridge[p.Src] || p.EdgeIDs[len(p.EdgeIDs)-1] != ax.bridge[p.Dst] {
		return graph.Path{}, fmt.Errorf("core: auxiliary path does not start/end with its bridges")
	}
	// Interior edge IDs coincide with the original graph's edge IDs because
	// the augmentation copied edges first.
	inner := append([]int(nil), p.EdgeIDs[1:len(p.EdgeIDs)-1]...)
	return graph.Path{Src: ua, Dst: vb, EdgeIDs: inner}, nil
}

// projectSystem maps a path system over the auxiliary pairs back to a path
// system over the original pairs on the original graph.
func (ax *auxiliaryGraph) projectSystem(aux *PathSystem, original *graph.Graph) (*PathSystem, error) {
	out := NewPathSystem(original)
	for i, ap := range ax.AuxPair {
		for _, p := range aux.Paths(ap.U, ap.V) {
			// Orient so the path starts at the aux vertex mapping to the
			// pair's first endpoint.
			oriented := p
			if oriented.Src != ap.U && oriented.Dst == ap.U {
				oriented = oriented.Reverse()
			}
			proj, err := ax.projectPath(oriented)
			if err != nil {
				return nil, fmt.Errorf("core: pair %v: %w", ax.Pairs[i], err)
			}
			if err := out.AddPath(proj); err != nil {
				return nil, fmt.Errorf("core: pair %v: %w", ax.Pairs[i], err)
			}
		}
	}
	return out, nil
}
