package graph

import "math"

// BFS returns hop distances from src to every vertex (-1 for unreachable)
// and, for each reached vertex, the ID of the edge through which it was first
// reached (parent edge; -1 for src and unreachable vertices).
func (g *Graph) BFS(src int) (dist []int, parentEdge []int) {
	dist = make([]int, g.n)
	parentEdge = make([]int, g.n)
	for i := range dist {
		dist[i] = -1
		parentEdge[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, id := range g.adj[v] {
			w := g.edges[id].Other(v)
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				parentEdge[w] = id
				queue = append(queue, w)
			}
		}
	}
	return dist, parentEdge
}

// ShortestPathHops returns a minimum-hop path from src to dst.
func (g *Graph) ShortestPathHops(src, dst int) (Path, error) {
	dist, parent := g.BFS(src)
	if dist[dst] < 0 {
		return Path{}, ErrNoPath
	}
	return extractPath(g, src, dst, parent)
}

func extractPath(g *Graph, src, dst int, parentEdge []int) (Path, error) {
	var ids []int
	cur := dst
	for cur != src {
		id := parentEdge[cur]
		if id < 0 {
			return Path{}, ErrNoPath
		}
		ids = append(ids, id)
		cur = g.edges[id].Other(cur)
	}
	// Reverse into src->dst order.
	for i, j := 0, len(ids)-1; i < j; i, j = i+1, j-1 {
		ids[i], ids[j] = ids[j], ids[i]
	}
	return Path{Src: src, Dst: dst, EdgeIDs: ids}, nil
}

type pqItem struct {
	v    int
	dist float64
}

// DistHeap is a binary min-heap of (vertex, distance) items for Dijkstra-style
// searches. Push and Pop are container/heap's Push/up and Pop/down on a typed
// slice — the same index arithmetic, the same strict less, the same swaps —
// so items pop in exactly the order, ties included, that container/heap
// would pop them, without boxing each item in an interface. The zero value
// is an empty heap; len reports its size.
type DistHeap []pqItem

// Push adds vertex v at distance dist.
func (q *DistHeap) Push(v int, dist float64) {
	h := append(*q, pqItem{v: v, dist: dist})
	j := len(h) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	*q = h
}

// Pop removes and returns the item with the smallest distance. The heap
// must not be empty.
func (q *DistHeap) Pop() (v int, dist float64) {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].dist < h[j1].dist {
			j = j2 // right child
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h[:n]
	return h[n].v, h[n].dist
}

// Dijkstra computes single-source lightest-path distances under the given
// per-edge lengths (indexed by edge ID; all lengths must be >= 0). It returns
// distances (math.Inf(1) for unreachable) and parent edges. Among equal-length
// paths the parent edge is fixed by the heap's pop order, which matches the
// container/heap implementation this replaced exactly (see DistHeap).
func (g *Graph) Dijkstra(src int, length []float64) (dist []float64, parentEdge []int) {
	dist = make([]float64, g.n)
	parentEdge = make([]int, g.n)
	q := make(DistHeap, 0, g.n)
	g.DijkstraInto(src, length, dist, parentEdge, &q)
	return dist, parentEdge
}

// DijkstraInto is Dijkstra writing into caller-owned buffers: dist and
// parentEdge (each of length NumVertices, any prior contents) receive the
// distances and parent edges, and q is the search's heap, emptied first and
// left grown for the next call. The results, ties included, are Dijkstra's.
func (g *Graph) DijkstraInto(src int, length, dist []float64, parentEdge []int, q *DistHeap) {
	dist, parentEdge = dist[:g.n], parentEdge[:g.n]
	for i := range dist {
		dist[i] = math.Inf(1)
		parentEdge[i] = -1
	}
	dist[src] = 0
	*q = (*q)[:0]
	q.Push(src, 0)
	for len(*q) > 0 {
		v, d := q.Pop()
		if d > dist[v] {
			continue
		}
		for _, id := range g.adj[v] {
			w := g.edges[id].Other(v)
			nd := d + length[id]
			if nd < dist[w] {
				dist[w] = nd
				parentEdge[w] = id
				q.Push(w, nd)
			}
		}
	}
}

// LightestPath returns a minimum-total-length path from src to dst under the
// given edge lengths.
func (g *Graph) LightestPath(src, dst int, length []float64) (Path, error) {
	dist, parent := g.Dijkstra(src, length)
	if math.IsInf(dist[dst], 1) {
		return Path{}, ErrNoPath
	}
	return extractPath(g, src, dst, parent)
}

// hopBoundedLightestPath returns a minimum-total-length path from src to dst
// among paths with at most maxHops edges, via layered Bellman-Ford.
// It returns ErrNoPath when no such path exists.
//
// This is the oracle underlying the hop-constrained oblivious routing
// substitute: dilation control comes from the hop budget, congestion control
// from the lengths.
func (g *Graph) hopBoundedLightestPath(src, dst, maxHops int, length []float64) (Path, error) {
	if maxHops < 0 {
		return Path{}, ErrNoPath
	}
	if src == dst {
		return Path{Src: src, Dst: dst}, nil
	}
	inf := math.Inf(1)
	// dist[h][v] = lightest walk of exactly <= h hops; parents stored per
	// round so the reconstructed walk never exceeds the hop budget.
	// Memory is O(n * maxHops), fine at the benchmark scales used here.
	prev := make([]float64, g.n)
	dist := make([]float64, g.n)
	for i := range prev {
		prev[i] = inf
	}
	prev[src] = 0
	parents := make([][]int32, 0, maxHops) // parents[h-1][v] = edge used at round h, -1 none
	bestHop := -1
	for h := 1; h <= maxHops; h++ {
		copy(dist, prev)
		par := make([]int32, g.n)
		for i := range par {
			par[i] = -1
		}
		improved := false
		for _, e := range g.edges {
			for _, pair := range [2][2]int{{e.U, e.V}, {e.V, e.U}} {
				from, to := pair[0], pair[1]
				if math.IsInf(prev[from], 1) {
					continue
				}
				nd := prev[from] + length[e.ID]
				if nd < dist[to]-1e-15 {
					dist[to] = nd
					par[to] = int32(e.ID)
					improved = true
				}
			}
		}
		parents = append(parents, par)
		copy(prev, dist)
		if !math.IsInf(dist[dst], 1) && bestHop < 0 {
			bestHop = h
		}
		if !improved {
			break
		}
	}
	if math.IsInf(prev[dst], 1) {
		return Path{}, ErrNoPath
	}
	// Walk back from dst through the rounds: at round h, either dst was
	// improved this round (follow its parent edge) or its value was carried
	// over (step to the previous round).
	var ids []int
	cur := dst
	for h := len(parents); h >= 1 && cur != src; h-- {
		id := parents[h-1][cur]
		if id < 0 {
			continue
		}
		ids = append(ids, int(id))
		cur = g.edges[id].Other(cur)
	}
	if cur != src {
		return Path{}, ErrNoPath
	}
	for i, j := 0, len(ids)-1; i < j; i, j = i+1, j-1 {
		ids[i], ids[j] = ids[j], ids[i]
	}
	p := Path{Src: src, Dst: dst, EdgeIDs: ids}
	sp, err := Simplify(g, p)
	if err != nil {
		return Path{}, err
	}
	if sp.Hops() > maxHops {
		return Path{}, ErrNoPath
	}
	return sp, nil
}

// eccentricity returns the maximum hop distance from v to any other vertex.
func (g *Graph) eccentricity(v int) int {
	dist, _ := g.BFS(v)
	ecc := 0
	for _, d := range dist {
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// HopDiameter returns the maximum hop distance between any vertex pair.
// O(n * (n+m)); intended for the benchmark-scale graphs in this repository.
func (g *Graph) HopDiameter() int {
	d := 0
	for v := 0; v < g.n; v++ {
		if e := g.eccentricity(v); e > d {
			d = e
		}
	}
	return d
}
