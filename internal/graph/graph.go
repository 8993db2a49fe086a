// Package graph provides the undirected capacitated multigraph model used by
// every routing subsystem in this repository.
//
// Following the paper's conventions, graphs are undirected and connected, and
// parallel edges stand in for integer capacities: an edge with Capacity c
// behaves exactly like c parallel unit edges. Edges are identified by dense
// integer IDs so congestion vectors can be plain slices.
package graph

import (
	"fmt"
	"sort"
)

// Edge is one undirected capacitated edge. U < V is not required; the pair is
// stored as given but treated symmetrically everywhere.
type Edge struct {
	ID       int
	U, V     int
	Capacity float64
}

// Other returns the endpoint of e that is not x. It panics if x is not an
// endpoint of e.
func (e Edge) Other(x int) int {
	switch x {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: vertex %d is not an endpoint of edge %d (%d,%d)", x, e.ID, e.U, e.V))
}

// Graph is an undirected multigraph with n vertices labelled 0..n-1.
// The zero value is an empty graph with no vertices; use New.
type Graph struct {
	n     int
	edges []Edge
	adj   [][]int // adj[v] = IDs of edges incident to v
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{n: n, adj: make([][]int, n)}
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of edges (parallel edges counted once; their
// multiplicity lives in Capacity).
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddEdge inserts an undirected edge {u,v} with the given capacity and
// returns its ID. Capacities must be positive; self-loops are rejected
// because simple paths never use them.
func (g *Graph) AddEdge(u, v int, capacity float64) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: endpoint out of range: (%d,%d) with n=%d", u, v, g.n))
	}
	if u == v {
		panic("graph: self-loops are not allowed")
	}
	if capacity <= 0 {
		panic("graph: capacity must be positive")
	}
	id := len(g.edges)
	g.edges = append(g.edges, Edge{ID: id, U: u, V: v, Capacity: capacity})
	g.adj[u] = append(g.adj[u], id)
	g.adj[v] = append(g.adj[v], id)
	return id
}

// AddUnitEdge inserts an edge with capacity 1.
func (g *Graph) AddUnitEdge(u, v int) int { return g.AddEdge(u, v, 1) }

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id int) Edge { return g.edges[id] }

// Edges returns the edge slice. Callers must not mutate it.
func (g *Graph) Edges() []Edge { return g.edges }

// Incident returns the IDs of the edges incident to v. Callers must not
// mutate the returned slice.
func (g *Graph) Incident(v int) []int { return g.adj[v] }

// Degree returns the number of incident edges of v (parallel edges counted
// via their capacity is NOT done here: this is the combinatorial degree).
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// CapacityDegree returns the total capacity incident to v.
func (g *Graph) CapacityDegree(v int) float64 {
	var s float64
	for _, id := range g.adj[v] {
		s += g.edges[id].Capacity
	}
	return s
}

// TotalCapacity returns the sum of all edge capacities.
func (g *Graph) TotalCapacity() float64 {
	var s float64
	for _, e := range g.edges {
		s += e.Capacity
	}
	return s
}

// FindEdge returns the ID of some edge joining u and v, or -1 if none exists.
func (g *Graph) FindEdge(u, v int) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return -1
	}
	for _, id := range g.adj[u] {
		if g.edges[id].Other(u) == v {
			return id
		}
	}
	return -1
}

// neighbors returns the sorted set of distinct neighbors of v.
func (g *Graph) neighbors(v int) []int {
	seen := make(map[int]bool, len(g.adj[v]))
	var out []int
	for _, id := range g.adj[v] {
		w := g.edges[id].Other(v)
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	sort.Ints(out)
	return out
}

// Connected reports whether the graph is connected (true for n <= 1).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	visited := make([]bool, g.n)
	stack := []int{0}
	visited[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, id := range g.adj[v] {
			w := g.edges[id].Other(v)
			if !visited[w] {
				visited[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == g.n
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	h := New(g.n)
	for _, e := range g.edges {
		h.AddEdge(e.U, e.V, e.Capacity)
	}
	return h
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d cap=%.0f}", g.n, len(g.edges), g.TotalCapacity())
}

// ScaleCapacities returns a copy of g with each edge's capacity multiplied by
// mult[id] (edges absent from mult keep their capacity). Multipliers must be
// positive: a zero effective capacity means the edge is gone, which callers
// model by pruning (RemoveEdges / path-system WithoutEdges), not by scaling.
// Edge IDs, endpoints, and adjacency are identical to g, so paths and
// congestion vectors over g remain valid over the scaled view — this is the
// derived graph partial-capacity events are re-optimized against.
func ScaleCapacities(g *Graph, mult map[int]float64) *Graph {
	h := New(g.n)
	for _, e := range g.edges {
		c := e.Capacity
		if m, ok := mult[e.ID]; ok {
			if m <= 0 {
				panic(fmt.Sprintf("graph: non-positive capacity multiplier %v for edge %d", m, e.ID))
			}
			c *= m
		}
		h.AddEdge(e.U, e.V, c)
	}
	return h
}

// RemoveEdges returns a copy of g without the given edges, plus the mapping
// from old edge IDs to new ones (-1 for removed edges). Used by the failure
// experiments: the surviving network is a fresh graph with dense IDs.
func RemoveEdges(g *Graph, failed map[int]bool) (*Graph, []int) {
	h := New(g.n)
	idMap := make([]int, len(g.edges))
	for _, e := range g.edges {
		if failed[e.ID] {
			idMap[e.ID] = -1
			continue
		}
		idMap[e.ID] = h.AddEdge(e.U, e.V, e.Capacity)
	}
	return h, idMap
}
