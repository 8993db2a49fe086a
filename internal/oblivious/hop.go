package oblivious

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"sparseroute/internal/flow"
	"sparseroute/internal/graph"
)

// HopConstrained is a hop-budgeted Valiant-style oblivious routing: to route
// u -> v with hop budget h, pick a uniformly random intermediate w among
// vertices with hop(u,w) + hop(w,v) <= h and concatenate hop-shortest paths
// u -> w -> v. Every returned path has at most h hops; the random
// intermediate spreads load the way Valiant's trick does.
//
// It substitutes for the hop-constrained oblivious routings of GHZ21 [14]:
// the paper's completion-time construction (Lemma 2.8) only consumes the
// interface — a family {R_h} of oblivious routings with dilation <= O(h) and
// good congestion per hop class — which this provides on the benchmark
// topologies. See DESIGN.md.
type HopConstrained struct {
	g      *graph.Graph
	budget int
	// hopDist[v] is the BFS distance array from v; parent[v] the BFS
	// parent-edge array. Built eagerly: O(n(n+m)).
	hopDist [][]int
	parent  [][]int
	// feasible[(u,v)] caches the feasible intermediate sets; guarded by
	// mu (routers are sampled from concurrently).
	mu       sync.Mutex
	feasible map[[2]int][]int
}

// NewHopConstrained builds the router with the given hop budget. Pairs whose
// hop distance already exceeds the budget have no feasible path and error at
// routing time.
func NewHopConstrained(g *graph.Graph, budget int) (*HopConstrained, error) {
	if budget < 1 {
		return nil, fmt.Errorf("oblivious: hop budget must be >= 1")
	}
	n := g.NumVertices()
	r := &HopConstrained{
		g:        g,
		budget:   budget,
		hopDist:  make([][]int, n),
		parent:   make([][]int, n),
		feasible: make(map[[2]int][]int),
	}
	for v := 0; v < n; v++ {
		r.hopDist[v], r.parent[v] = g.BFS(v)
	}
	return r, nil
}

// Graph implements Router.
func (r *HopConstrained) Graph() *graph.Graph { return r.g }

// intermediates returns the feasible intermediate vertices for (u,v).
func (r *HopConstrained) intermediates(u, v int) ([]int, error) {
	u, v, _ = normalizePair(u, v)
	key := [2]int{u, v}
	r.mu.Lock()
	defer r.mu.Unlock()
	if ws, ok := r.feasible[key]; ok {
		if ws == nil {
			return nil, graph.ErrNoPath
		}
		return ws, nil
	}
	du := r.hopDist[u]
	dv := r.hopDist[v]
	var ws []int
	for w := 0; w < r.g.NumVertices(); w++ {
		if du[w] >= 0 && dv[w] >= 0 && du[w]+dv[w] <= r.budget {
			ws = append(ws, w)
		}
	}
	r.feasible[key] = ws
	if ws == nil {
		return nil, graph.ErrNoPath
	}
	return ws, nil
}

// bfsPath extracts the deterministic BFS shortest path from src to dst.
func (r *HopConstrained) bfsPath(src, dst int) (graph.Path, error) {
	var ids []int
	cur := dst
	for cur != src {
		id := r.parent[src][cur]
		if id < 0 {
			return graph.Path{}, graph.ErrNoPath
		}
		ids = append(ids, id)
		cur = r.g.Edge(id).Other(cur)
	}
	for i, j := 0, len(ids)-1; i < j; i, j = i+1, j-1 {
		ids[i], ids[j] = ids[j], ids[i]
	}
	return graph.Path{Src: src, Dst: dst, EdgeIDs: ids}, nil
}

// viaIntermediate routes u -> w -> v along hop-shortest paths, simplified.
// The deterministic variant (used by Distribution) follows BFS parent trees.
func (r *HopConstrained) viaIntermediate(u, v, w int) (graph.Path, error) {
	first, err := r.bfsPath(u, w)
	if err != nil {
		return graph.Path{}, err
	}
	second, err := r.bfsPath(w, v)
	if err != nil {
		return graph.Path{}, err
	}
	joined, err := graph.Concat(first, second)
	if err != nil {
		return graph.Path{}, err
	}
	return graph.Simplify(r.g, joined)
}

// randomShortestPath samples a uniformly-random-step path through the
// shortest-path DAG from src to dst: walking back from dst, each step picks
// a random in-neighbor one hop closer to src. Hop length equals the BFS
// distance, so hop budgets are preserved while path diversity increases —
// without it, deterministic BFS trees would funnel every sample over the
// same bottleneck edges (defeating the spreading that makes the base
// routing competitive).
func (r *HopConstrained) randomShortestPath(src, dst int, rng *rand.Rand) (graph.Path, error) {
	if src == dst {
		return graph.Path{Src: src, Dst: dst}, nil
	}
	dist := r.hopDist[src]
	if dist[dst] < 0 {
		return graph.Path{}, graph.ErrNoPath
	}
	var ids []int
	cur := dst
	for cur != src {
		var options []int
		for _, id := range r.g.Incident(cur) {
			prev := r.g.Edge(id).Other(cur)
			if dist[prev] == dist[cur]-1 {
				options = append(options, id)
			}
		}
		if len(options) == 0 {
			return graph.Path{}, graph.ErrNoPath
		}
		id := options[rng.IntN(len(options))]
		ids = append(ids, id)
		cur = r.g.Edge(id).Other(cur)
	}
	for i, j := 0, len(ids)-1; i < j; i, j = i+1, j-1 {
		ids[i], ids[j] = ids[j], ids[i]
	}
	return graph.Path{Src: src, Dst: dst, EdgeIDs: ids}, nil
}

// Sample implements Router: a uniformly random feasible intermediate, with
// each leg drawn from the shortest-path DAG at random.
func (r *HopConstrained) Sample(u, v int, rng *rand.Rand) (graph.Path, error) {
	if u == v {
		return graph.Path{Src: u, Dst: v}, nil
	}
	ws, err := r.intermediates(u, v)
	if err != nil {
		return graph.Path{}, fmt.Errorf("oblivious: no %d-hop route for (%d,%d): %w", r.budget, u, v, err)
	}
	w := ws[rng.IntN(len(ws))]
	first, err := r.randomShortestPath(u, w, rng)
	if err != nil {
		return graph.Path{}, err
	}
	second, err := r.randomShortestPath(w, v, rng)
	if err != nil {
		return graph.Path{}, err
	}
	joined, err := graph.Concat(first, second)
	if err != nil {
		return graph.Path{}, err
	}
	return graph.Simplify(r.g, joined)
}

// Distribution implements Router: uniform over feasible intermediates, with
// identical paths merged. Cost O(n · budget) per pair.
func (r *HopConstrained) Distribution(u, v int) ([]flow.WeightedPath, error) {
	if u == v {
		return []flow.WeightedPath{{Path: graph.Path{Src: u, Dst: v}, Weight: 1}}, nil
	}
	ws, err := r.intermediates(u, v)
	if err != nil {
		return nil, fmt.Errorf("oblivious: no %d-hop route for (%d,%d): %w", r.budget, u, v, err)
	}
	byKey := make(map[string]int)
	var out []flow.WeightedPath
	wgt := 1.0 / float64(len(ws))
	for _, w := range ws {
		p, err := r.viaIntermediate(u, v, w)
		if err != nil {
			return nil, err
		}
		k := p.Key()
		if idx, ok := byKey[k]; ok {
			out[idx].Weight += wgt
		} else {
			byKey[k] = len(out)
			out = append(out, flow.WeightedPath{Path: p, Weight: wgt})
		}
	}
	return out, nil
}

// RandomDetour is the naive general-graph Valiant analogue used as an
// ablation sampler: a uniformly random intermediate with no hop budget at
// all. Sampling candidate paths from it (instead of Raecke) shows how much
// the base oblivious routing's quality matters (experiment E8).
type RandomDetour struct {
	inner *HopConstrained
}

// NewRandomDetour builds the router; the hop budget is set to twice the
// graph's diameter, which never excludes any intermediate.
func NewRandomDetour(g *graph.Graph) (*RandomDetour, error) {
	inner, err := NewHopConstrained(g, 2*g.HopDiameter()+1)
	if err != nil {
		return nil, err
	}
	return &RandomDetour{inner: inner}, nil
}

// Graph implements Router.
func (r *RandomDetour) Graph() *graph.Graph { return r.inner.g }

// Sample implements Router.
func (r *RandomDetour) Sample(u, v int, rng *rand.Rand) (graph.Path, error) {
	return r.inner.Sample(u, v, rng)
}

// Distribution implements Router.
func (r *RandomDetour) Distribution(u, v int) ([]flow.WeightedPath, error) {
	return r.inner.Distribution(u, v)
}
