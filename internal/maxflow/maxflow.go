// Package maxflow implements Dinic's maximum-flow algorithm on the
// repository's undirected capacitated graphs.
//
// Its single purpose in the reproduction is the min-cut value λ(u,v) of
// Definition 2.1: the (R+λ)-sample of Theorem 5.3 must sample λ(u,v)
// additional paths per pair, and the lower-bound experiments need cut values
// to certify sparsity classes.
package maxflow

import (
	"math"

	"sparseroute/internal/graph"
)

type arc struct {
	to   int
	rev  int // index of the reverse arc in net[to]
	cap  float64
	edge int // originating undirected edge ID, -1 for reverse bookkeeping
}

// network is a residual network built from an undirected graph. Each
// undirected edge becomes a pair of arcs, each with the full edge capacity
// (the standard undirected max-flow reduction).
type network struct {
	n   int
	net [][]arc
}

// newNetwork builds a residual network from g.
func newNetwork(g *graph.Graph) *network {
	nw := &network{n: g.NumVertices(), net: make([][]arc, g.NumVertices())}
	for _, e := range g.Edges() {
		nw.addUndirected(e.U, e.V, e.Capacity, e.ID)
	}
	return nw
}

func (nw *network) addUndirected(u, v int, c float64, edgeID int) {
	nw.net[u] = append(nw.net[u], arc{to: v, rev: len(nw.net[v]), cap: c, edge: edgeID})
	nw.net[v] = append(nw.net[v], arc{to: u, rev: len(nw.net[u]) - 1, cap: c, edge: edgeID})
}

func (nw *network) clone() *network {
	cp := &network{n: nw.n, net: make([][]arc, nw.n)}
	for v := range nw.net {
		cp.net[v] = append([]arc(nil), nw.net[v]...)
	}
	return cp
}

func (nw *network) bfsLevels(s, t int) []int {
	level := make([]int, nw.n)
	for i := range level {
		level[i] = -1
	}
	level[s] = 0
	queue := []int{s}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, a := range nw.net[v] {
			if a.cap > 1e-12 && level[a.to] < 0 {
				level[a.to] = level[v] + 1
				queue = append(queue, a.to)
			}
		}
	}
	return level
}

func (nw *network) dfsBlocking(v, t int, f float64, level []int, it []int) float64 {
	if v == t {
		return f
	}
	for ; it[v] < len(nw.net[v]); it[v]++ {
		a := &nw.net[v][it[v]]
		if a.cap <= 1e-12 || level[a.to] != level[v]+1 {
			continue
		}
		pushed := nw.dfsBlocking(a.to, t, math.Min(f, a.cap), level, it)
		if pushed > 0 {
			a.cap -= pushed
			nw.net[a.to][a.rev].cap += pushed
			return pushed
		}
	}
	return 0
}

// maxFlow computes the maximum s-t flow value. The receiver is not mutated.
func (nw *network) maxFlow(s, t int) float64 {
	if s == t {
		return math.Inf(1)
	}
	work := nw.clone()
	var total float64
	for {
		level := work.bfsLevels(s, t)
		if level[t] < 0 {
			return total
		}
		it := make([]int, work.n)
		for {
			pushed := work.dfsBlocking(s, t, math.Inf(1), level, it)
			if pushed <= 0 {
				break
			}
			total += pushed
		}
	}
}

// minCut returns the value of the minimum s-t cut and the IDs of the
// undirected edges crossing it (edges with one endpoint reachable from s in
// the final residual network).
func (nw *network) minCut(s, t int) (float64, []int) {
	if s == t {
		return math.Inf(1), nil
	}
	work := nw.clone()
	var total float64
	for {
		level := work.bfsLevels(s, t)
		if level[t] < 0 {
			break
		}
		it := make([]int, work.n)
		for {
			pushed := work.dfsBlocking(s, t, math.Inf(1), level, it)
			if pushed <= 0 {
				break
			}
			total += pushed
		}
	}
	reach := work.bfsLevels(s, t) // t unreachable now; levels >= 0 mark S-side
	cutSet := make(map[int]bool)
	for v := range work.net {
		if reach[v] < 0 {
			continue
		}
		for _, a := range work.net[v] {
			if reach[a.to] < 0 && a.edge >= 0 {
				cutSet[a.edge] = true
			}
		}
	}
	var ids []int
	for id := range cutSet {
		ids = append(ids, id)
	}
	return total, ids
}

// Lambda returns the u-v min-cut value λ(u,v) in g (Definition 2.1's
// λ-sparsity parameter). λ(u,u) is +Inf by convention.
func Lambda(g *graph.Graph, u, v int) float64 {
	return newNetwork(g).maxFlow(u, v)
}
