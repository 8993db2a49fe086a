package oblivious

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync"

	"sparseroute/internal/flow"
	"sparseroute/internal/graph"
)

// KSP routes each pair uniformly over its k shortest loopless paths (Yen's
// algorithm) under the given edge lengths. It models the ECMP/k-shortest-path
// spreading used as a baseline in the SMORE evaluation, and serves as an
// ablation sampler: sampling candidate paths from KSP instead of a
// congestion-competitive oblivious routing.
type KSP struct {
	g       *graph.Graph
	k       int
	lengths []float64
	mu      sync.Mutex
	cache   map[[2]int][]graph.Path // guarded by mu
}

// NewKSP returns a k-shortest-paths router. lengths may be nil for unit
// lengths.
func NewKSP(g *graph.Graph, k int, lengths []float64) *KSP {
	if k < 1 {
		panic("oblivious: KSP needs k >= 1")
	}
	if lengths == nil {
		lengths = make([]float64, g.NumEdges())
		for i := range lengths {
			lengths[i] = 1
		}
	}
	return &KSP{g: g, k: k, lengths: lengths, cache: make(map[[2]int][]graph.Path)}
}

// Graph implements Router.
func (r *KSP) Graph() *graph.Graph { return r.g }

// Paths returns the (at most) k shortest loopless u-v paths.
func (r *KSP) Paths(u, v int) ([]graph.Path, error) {
	u, v, swapped := normalizePair(u, v)
	key := [2]int{u, v}
	r.mu.Lock()
	paths, ok := r.cache[key]
	r.mu.Unlock()
	if !ok {
		var err error
		paths, err = yen(r.g, u, v, r.k, r.lengths)
		if err != nil {
			return nil, err
		}
		r.mu.Lock()
		r.cache[key] = paths
		r.mu.Unlock()
	}
	if swapped {
		rev := make([]graph.Path, len(paths))
		for i, p := range paths {
			rev[i] = p.Reverse()
		}
		return rev, nil
	}
	return paths, nil
}

// Sample implements Router: a uniformly random one of the k paths.
func (r *KSP) Sample(u, v int, rng *rand.Rand) (graph.Path, error) {
	paths, err := r.Paths(u, v)
	if err != nil {
		return graph.Path{}, err
	}
	return paths[rng.IntN(len(paths))], nil
}

// Distribution implements Router: uniform over the k paths.
func (r *KSP) Distribution(u, v int) ([]flow.WeightedPath, error) {
	paths, err := r.Paths(u, v)
	if err != nil {
		return nil, err
	}
	out := make([]flow.WeightedPath, len(paths))
	w := 1.0 / float64(len(paths))
	for i, p := range paths {
		out[i] = flow.WeightedPath{Path: p, Weight: w}
	}
	return out, nil
}

// maskedDijkstra is Dijkstra avoiding banned edges and vertices (the spur
// computation inside Yen's algorithm). src itself is never banned.
func maskedDijkstra(g *graph.Graph, src, dst int, lengths []float64, bannedEdge map[int]bool, bannedVertex map[int]bool) (graph.Path, float64, error) {
	n := g.NumVertices()
	dist := make([]float64, n)
	parent := make([]int, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	dist[src] = 0
	q := make(graph.DistHeap, 0, n)
	q.Push(src, 0)
	for len(q) > 0 {
		v, d := q.Pop()
		if d > dist[v] {
			continue
		}
		if v == dst {
			break
		}
		for _, id := range g.Incident(v) {
			if bannedEdge[id] {
				continue
			}
			w := g.Edge(id).Other(v)
			if bannedVertex[w] && w != dst {
				continue
			}
			nd := d + lengths[id]
			if nd < dist[w] {
				dist[w] = nd
				parent[w] = id
				q.Push(w, nd)
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return graph.Path{}, 0, graph.ErrNoPath
	}
	var ids []int
	cur := dst
	for cur != src {
		id := parent[cur]
		ids = append(ids, id)
		cur = g.Edge(id).Other(cur)
	}
	for i, j := 0, len(ids)-1; i < j; i, j = i+1, j-1 {
		ids[i], ids[j] = ids[j], ids[i]
	}
	return graph.Path{Src: src, Dst: dst, EdgeIDs: ids}, dist[dst], nil
}

func pathLength(p graph.Path, lengths []float64) float64 {
	var s float64
	for _, id := range p.EdgeIDs {
		s += lengths[id]
	}
	return s
}

// yen computes up to k shortest loopless src-dst paths.
func yen(g *graph.Graph, src, dst, k int, lengths []float64) ([]graph.Path, error) {
	if src == dst {
		return []graph.Path{{Src: src, Dst: dst}}, nil
	}
	first, _, err := maskedDijkstra(g, src, dst, lengths, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("oblivious: KSP pair (%d,%d): %w", src, dst, err)
	}
	accepted := []graph.Path{first}
	type cand struct {
		p graph.Path
		l float64
	}
	var pool []cand
	seen := map[string]bool{first.Key(): true}

	for len(accepted) < k {
		prev := accepted[len(accepted)-1]
		prevVerts, err := prev.Vertices(g)
		if err != nil {
			return nil, err
		}
		for i := 0; i < len(prevVerts)-1; i++ {
			spur := prevVerts[i]
			rootIDs := append([]int(nil), prev.EdgeIDs[:i]...)
			rootPath := graph.Path{Src: src, Dst: spur, EdgeIDs: rootIDs}
			bannedEdge := make(map[int]bool)
			for _, ap := range accepted {
				if len(ap.EdgeIDs) > i && equalPrefix(ap.EdgeIDs, rootIDs, i) {
					bannedEdge[ap.EdgeIDs[i]] = true
				}
			}
			bannedVertex := make(map[int]bool)
			for _, v := range prevVerts[:i] {
				bannedVertex[v] = true
			}
			spurPath, _, err := maskedDijkstra(g, spur, dst, lengths, bannedEdge, bannedVertex)
			if err != nil {
				continue
			}
			full, err := graph.Concat(rootPath, spurPath)
			if err != nil {
				continue
			}
			if !full.IsSimple(g) {
				continue
			}
			key := full.Key()
			if seen[key] {
				continue
			}
			seen[key] = true
			pool = append(pool, cand{p: full, l: pathLength(full, lengths)})
		}
		if len(pool) == 0 {
			break
		}
		sort.Slice(pool, func(a, b int) bool { return pool[a].l < pool[b].l })
		accepted = append(accepted, pool[0].p)
		pool = pool[1:]
	}
	return accepted, nil
}

func equalPrefix(a, b []int, n int) bool {
	if len(a) < n || len(b) < n {
		return false
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
