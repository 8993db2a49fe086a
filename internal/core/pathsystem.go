// Package core implements the paper's primary contribution: sparse
// semi-oblivious routings.
//
// A semi-oblivious routing is just a path system (Definition 2.1): a small
// set of candidate paths fixed per vertex pair *before* any demand is known.
// Once a demand arrives, the sending rates over the candidates are optimized
// globally (Stage 4 of the evaluation protocol) — that optimization is the
// Adapt family of methods, delegating to internal/mcf.
//
// The paper's construction (Definition 5.2, Theorem 5.3) is sampling: take
// any competitive oblivious routing and draw R (or R + λ(u,v)) independent
// paths per pair. RSample and RPlusLambdaSample implement exactly that;
// CompletionTimeSample implements the hop-scale union of Lemmas 2.8/2.9.
package core

import (
	"cmp"
	"fmt"
	"slices"

	"sparseroute/internal/demand"
	"sparseroute/internal/graph"
)

// PathSystem is a semi-oblivious routing (Definition 2.1): candidate paths
// per vertex pair. Sampled paths are stored with multiplicity (the R-sample
// draws with replacement; the weak-routing process of Section 5.3 needs the
// multiplicities), while adaptation uses the deduplicated set.
//
// A path is validated once, when it enters through AddPath. Derived systems
// (Clone, WithoutEdges, Rebind) share the per-pair storage of their source;
// the shared slices are clipped, and Retain never writes into existing
// storage, so AddPath, Merge or Retain on either system never changes the
// other.
type PathSystem struct {
	g     *graph.Graph
	paths map[demand.Pair][]graph.Path
}

// NewPathSystem returns an empty path system over g.
func NewPathSystem(g *graph.Graph) *PathSystem {
	return &PathSystem{g: g, paths: make(map[demand.Pair][]graph.Path)}
}

// Graph returns the underlying graph.
func (ps *PathSystem) Graph() *graph.Graph { return ps.g }

// AddPath registers a candidate path for its endpoint pair. The path must be
// a valid simple path in the system's graph.
func (ps *PathSystem) AddPath(p graph.Path) error {
	if p.Src == p.Dst {
		return fmt.Errorf("core: candidate path with equal endpoints %d", p.Src)
	}
	if err := p.Validate(ps.g); err != nil {
		return fmt.Errorf("core: invalid candidate path: %w", err)
	}
	if !p.IsSimple(ps.g) {
		return fmt.Errorf("core: candidate path %d->%d is not simple", p.Src, p.Dst)
	}
	pair := demand.MakePair(p.Src, p.Dst)
	ps.paths[pair] = append(ps.paths[pair], p)
	return nil
}

// Paths returns the sampled paths of the pair, with multiplicity. Callers
// must not mutate the returned slice.
func (ps *PathSystem) Paths(u, v int) []graph.Path {
	return ps.paths[demand.MakePair(u, v)]
}

// NumSampled returns the number of sampled paths for the pair, counting
// multiplicity (the |P_uv| of Definition 5.5's special demands).
func (ps *PathSystem) NumSampled(p demand.Pair) int { return len(ps.paths[p]) }

// Unique returns the deduplicated candidate paths of the pair, in order of
// first occurrence. Two sampled paths are the same candidate when they
// traverse the same edge sequence forward or reversed — the equivalence
// graph.Path.Key encodes, decided here without building keys.
func (ps *PathSystem) Unique(u, v int) []graph.Path {
	paths := ps.paths[demand.MakePair(u, v)]
	if len(paths) == 0 {
		return nil
	}
	out := make([]graph.Path, 0, len(paths))
next:
	for _, p := range paths {
		for _, q := range out {
			if sameRoute(p.EdgeIDs, q.EdgeIDs) {
				continue next
			}
		}
		out = append(out, p)
	}
	return out
}

// sameRoute reports whether a and b are the same edge sequence read in
// either direction.
func sameRoute(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	fwd, rev := true, true
	for i, id := range a {
		fwd = fwd && id == b[i]
		rev = rev && id == b[len(b)-1-i]
		if !fwd && !rev {
			return false
		}
	}
	return true
}

// UniqueAll returns the deduplicated candidate map for all pairs, the form
// the adaptation solvers consume.
func (ps *PathSystem) UniqueAll() map[demand.Pair][]graph.Path {
	out := make(map[demand.Pair][]graph.Path, len(ps.paths))
	for pair := range ps.paths {
		out[pair] = ps.Unique(pair.U, pair.V)
	}
	return out
}

// comparePairs orders pairs by (U, V), the order demand.Support uses.
func comparePairs(a, b demand.Pair) int {
	if c := cmp.Compare(a.U, b.U); c != 0 {
		return c
	}
	return cmp.Compare(a.V, b.V)
}

// Pairs returns the pairs with at least one candidate, sorted.
func (ps *PathSystem) Pairs() []demand.Pair {
	out := make([]demand.Pair, 0, len(ps.paths))
	for p := range ps.paths {
		out = append(out, p)
	}
	slices.SortFunc(out, comparePairs)
	return out
}

// Sparsity returns the maximum number of sampled paths over all pairs (the
// "s" in s-sparse, Definition 2.1), counting multiplicity.
func (ps *PathSystem) Sparsity() int {
	mx := 0
	for _, paths := range ps.paths {
		if len(paths) > mx {
			mx = len(paths)
		}
	}
	return mx
}

// UniqueSparsity returns the maximum number of distinct candidates per pair.
func (ps *PathSystem) UniqueSparsity() int {
	mx := 0
	for pair := range ps.paths {
		if n := len(ps.Unique(pair.U, pair.V)); n > mx {
			mx = n
		}
	}
	return mx
}

// TotalPaths returns the total number of sampled paths over all pairs.
func (ps *PathSystem) TotalPaths() int {
	n := 0
	for _, paths := range ps.paths {
		n += len(paths)
	}
	return n
}

// MaxHops returns the largest hop length among all candidates (the system's
// worst-case dilation).
func (ps *PathSystem) MaxHops() int {
	mx := 0
	for _, paths := range ps.paths {
		for _, p := range paths {
			if p.Hops() > mx {
				mx = p.Hops()
			}
		}
	}
	return mx
}

// Covers reports whether every support pair of d has at least one candidate.
func (ps *PathSystem) Covers(d *demand.Demand) bool {
	for _, p := range d.Support() {
		if len(ps.paths[p]) == 0 {
			return false
		}
	}
	return true
}

// RestrictHops returns a new path system containing only candidates with at
// most maxHops edges (the dilation classes used by completion-time
// adaptation). Pairs losing all candidates disappear.
func (ps *PathSystem) RestrictHops(maxHops int) *PathSystem {
	out := NewPathSystem(ps.g)
	for pair, paths := range ps.paths {
		for _, p := range paths {
			if p.Hops() <= maxHops {
				out.paths[pair] = append(out.paths[pair], p)
			}
		}
	}
	return out
}

// restrictHopsKeepShortest returns the subsystem with candidates of at most
// maxHops edges, except that every pair always keeps its shortest candidate
// (so coverage never drops). This is the per-class restriction used by
// completion-time adaptation: the dilation of class h is bounded by
// max(h, longest shortest-candidate), not by the union's worst path.
func (ps *PathSystem) restrictHopsKeepShortest(maxHops int) *PathSystem {
	out := NewPathSystem(ps.g)
	for pair, paths := range ps.paths {
		minHops := -1
		for _, p := range paths {
			if minHops < 0 || p.Hops() < minHops {
				minHops = p.Hops()
			}
		}
		bound := maxHops
		if minHops > bound {
			bound = minHops
		}
		for _, p := range paths {
			if p.Hops() <= bound {
				out.paths[pair] = append(out.paths[pair], p)
			}
		}
	}
	return out
}

// WithoutEdges returns the subsystem of candidates that avoid every failed
// edge — the set of paths that survive a link-failure event. Pairs whose
// candidates all die disappear from the system (callers check Covers).
// This models the robustness property the SMORE deployment relies on:
// a diverse pre-installed path set keeps working routes under failures
// without touching any forwarding table.
// A pair whose candidates all survive shares its storage with ps.
func (ps *PathSystem) WithoutEdges(failed map[int]bool) *PathSystem {
	out := &PathSystem{g: ps.g, paths: make(map[demand.Pair][]graph.Path, len(ps.paths))}
	for pair, paths := range ps.paths {
		if kept := without(paths, failed); len(kept) > 0 {
			out.paths[pair] = kept
		}
	}
	return out
}

// without returns the paths that avoid every failed edge, in order: paths
// itself, clipped, when they all do.
func without(paths []graph.Path, failed map[int]bool) []graph.Path {
	for i, p := range paths {
		if !avoids(p, failed) {
			kept := make([]graph.Path, i, len(paths)-1)
			copy(kept, paths[:i])
			for _, q := range paths[i+1:] {
				if avoids(q, failed) {
					kept = append(kept, q)
				}
			}
			return kept
		}
	}
	return slices.Clip(paths)
}

// avoids reports whether p uses none of the failed edges.
func avoids(p graph.Path, failed map[int]bool) bool {
	for _, id := range p.EdgeIDs {
		if failed[id] {
			return false
		}
	}
	return true
}

// Clone returns a system with the same candidates that shares every pair's
// storage with ps. Adding to either one never changes the other.
func (ps *PathSystem) Clone() *PathSystem {
	out := &PathSystem{g: ps.g, paths: make(map[demand.Pair][]graph.Path, len(ps.paths))}
	for pair, paths := range ps.paths {
		out.paths[pair] = slices.Clip(paths)
	}
	return out
}

// Retain keeps the candidates of pair p whose index (into p's current list)
// keep accepts, in order, and drops the pair when none remain; keep is asked
// about each index once, in increasing order, so it may carry state (a
// running dedup set). The kept paths were validated when they entered, so
// nothing is re-checked. A kept
// prefix stays shared; anything else is copied, so a system sharing p's
// storage is unaffected.
func (ps *PathSystem) Retain(p demand.Pair, keep func(i int) bool) {
	paths := ps.paths[p]
	n := 0
	for n < len(paths) && keep(n) {
		n++
	}
	kept := paths[:n:n]
	for i := n + 1; i < len(paths); i++ {
		if keep(i) {
			kept = append(kept, paths[i])
		}
	}
	if len(kept) == 0 {
		delete(ps.paths, p)
		return
	}
	ps.paths[p] = kept
}

// UncoveredPairs returns the pairs among `pairs` with no candidate in ps,
// sorted. After a WithoutEdges prune this is exactly the set of pairs whose
// pre-installed paths all died — the pairs a link-failure recovery pass must
// resample (when the surviving graph still connects them) or report as
// unservable.
func (ps *PathSystem) UncoveredPairs(pairs []demand.Pair) []demand.Pair {
	var out []demand.Pair
	for _, p := range pairs {
		if len(ps.paths[demand.MakePair(p.U, p.V)]) == 0 {
			out = append(out, p)
		}
	}
	slices.SortFunc(out, comparePairs)
	return out
}

// Rebind returns a view of ps over g2, sharing path storage as Clone does.
// g2 must have the same shape as the system's graph (vertex count, edge
// count, and per-edge endpoints); only capacities may differ. This is how
// the adaptation solvers are pointed at a capacity-scaled view of the
// topology (graph.ScaleCapacities) without copying any paths: the candidates
// are identical, the congestion denominators are not.
func (ps *PathSystem) Rebind(g2 *graph.Graph) (*PathSystem, error) {
	if g2.NumVertices() != ps.g.NumVertices() || g2.NumEdges() != ps.g.NumEdges() {
		return nil, fmt.Errorf("core: rebinding path system across different graph shapes")
	}
	for _, e := range ps.g.Edges() {
		e2 := g2.Edge(e.ID)
		if e2.U != e.U || e2.V != e.V {
			return nil, fmt.Errorf("core: rebinding path system: edge %d joins (%d,%d) vs (%d,%d)",
				e.ID, e.U, e.V, e2.U, e2.V)
		}
	}
	return &PathSystem{g: g2, paths: ps.Clone().paths}, nil
}

// Merge adds every candidate of other into ps (multiplicities add). Both
// systems must share the same graph.
func (ps *PathSystem) Merge(other *PathSystem) error {
	if ps.g != other.g {
		return fmt.Errorf("core: merging path systems over different graphs")
	}
	for pair, paths := range other.paths {
		ps.paths[pair] = append(ps.paths[pair], paths...)
	}
	return nil
}

// Validate checks every stored path.
func (ps *PathSystem) Validate() error {
	for pair, paths := range ps.paths {
		for i, p := range paths {
			if got := demand.MakePair(p.Src, p.Dst); got != pair {
				return fmt.Errorf("core: pair %v stores path with endpoints %v", pair, got)
			}
			if err := p.Validate(ps.g); err != nil {
				return fmt.Errorf("core: pair %v path %d: %w", pair, i, err)
			}
		}
	}
	return nil
}

// AllPairs returns every unordered pair over n vertices — the full domain of
// Definition 2.1.
func AllPairs(n int) []demand.Pair {
	out := make([]demand.Pair, 0, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			out = append(out, demand.Pair{U: u, V: v})
		}
	}
	return out
}
