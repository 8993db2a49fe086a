// Package frt builds random hierarchical decomposition trees in the style of
// Fakcharoenphol–Rao–Talwar: a random permutation and a random radius scale
// produce a laminar family of clusters whose tree metric dominates the graph
// metric and approximates it by O(log n) in expectation.
//
// The Räcke oblivious routing (internal/oblivious) is a congestion-adaptive
// mixture of these trees: each tree edge maps to a lightest path between
// cluster centers, and routing through the tree concatenates those paths.
// One shortest-path pass per tree serves both: Build runs Dijkstra once from
// every vertex under the normalized lengths, partitions by the distances and
// keeps the parent edges, from which the center paths are read.
// This is the practical construction used by SMORE/Yates and stands in for
// the hierarchical decompositions of Räcke'08 (see DESIGN.md).
package frt

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"

	"sparseroute/internal/graph"
)

// Node is one cluster in the hierarchy.
type Node struct {
	Parent int // node index; -1 for the root
	Center int // representative graph vertex
	Level  int // leaves are level 0
	// Members is the vertex set of the cluster (leaves hold exactly one).
	Members []int
}

// Tree is a hierarchical decomposition of a graph.
type Tree struct {
	Nodes []Node
	// LeafOf[v] is the index of the leaf node containing vertex v.
	LeafOf []int

	g *graph.Graph
	// parents is Build's n×n parent-edge slab: parents[s*n+v] is the edge by
	// which the lightest path from s (under the normalized lengths) reaches
	// v, -1 at s. Every center path is read from it.
	parents []int
	// mu guards pathCache: trees are routed through concurrently by the
	// parallel samplers.
	mu sync.Mutex
	// pathCache[node] is the edge sequence of the mapped graph path from the
	// node's center to its parent's center, nil until first needed.
	pathCache [][]int
}

// Build constructs one random FRT-style decomposition of g under the given
// edge lengths (all positive). rng drives the permutation and the radius
// scale. Build computes the lightest paths once, from every vertex under the
// lengths normalized to a smallest length of 1, and both the partition and
// the mapped center paths use them; the tree keeps no reference to lengths,
// so the caller may reuse the slice.
func Build(g *graph.Graph, lengths []float64, rng *rand.Rand) (*Tree, error) {
	n := g.NumVertices()
	if n == 0 {
		return nil, fmt.Errorf("frt: empty graph")
	}
	if len(lengths) != g.NumEdges() {
		return nil, fmt.Errorf("frt: %d lengths for %d edges", len(lengths), g.NumEdges())
	}
	// Normalize so the smallest length is 1 (FRT's unit base scale).
	minLen := math.Inf(1)
	for _, l := range lengths {
		if l <= 0 {
			return nil, fmt.Errorf("frt: nonpositive edge length %v", l)
		}
		if l < minLen {
			minLen = l
		}
	}
	norm := make([]float64, len(lengths))
	for i, l := range lengths {
		norm[i] = l / minLen
	}
	// All-pairs distances and parent edges via n Dijkstras (benchmark
	// scale): dist[s*n+v] is the distance from s to v.
	dist := make([]float64, n*n)
	parents := make([]int, n*n)
	q := make(graph.DistHeap, 0, n)
	for v := 0; v < n; v++ {
		g.DijkstraInto(v, norm, dist[v*n:(v+1)*n], parents[v*n:(v+1)*n], &q)
	}
	var diam float64
	for _, d := range dist {
		if math.IsInf(d, 1) {
			return nil, fmt.Errorf("frt: graph is disconnected")
		}
		if d > diam {
			diam = d
		}
	}
	levels := 1
	for float64(int64(1)<<levels) <= 2*diam+1 {
		levels++
	}
	beta := 1 + float64(rng.Float64()) // β ∈ [1,2)
	perm := rng.Perm(n)

	t := &Tree{g: g, parents: parents, LeafOf: make([]int, n)}

	// Top node: everything, centered at the π-first vertex.
	root := Node{Parent: -1, Center: perm[0], Level: levels, Members: make([]int, n)}
	for v := 0; v < n; v++ {
		root.Members[v] = v
	}
	t.Nodes = append(t.Nodes, root)
	frontier := []int{0}
	// byCenter[c] collects the members of the cluster being partitioned that
	// fall to center c; order lists those centers first-seen first and
	// decides the child order. Emptied after every partition.
	byCenter := make([][]int, n)
	var order []int

	for level := levels - 1; level >= 0; level-- {
		radius := beta * math.Exp2(float64(level-1))
		var next []int
		for _, nodeIdx := range frontier {
			members := t.Nodes[nodeIdx].Members
			if len(members) == 1 && level > 0 {
				// Singleton clusters fall straight through to level 0.
				child := Node{Parent: nodeIdx, Center: members[0], Level: level, Members: members}
				t.Nodes = append(t.Nodes, child)
				next = append(next, len(t.Nodes)-1)
				continue
			}
			// Partition members by their first π-center within the radius.
			order = order[:0]
			for _, v := range members {
				c := -1
				for _, cand := range perm {
					if dist[cand*n+v] <= radius {
						c = cand
						break
					}
				}
				if c < 0 {
					c = v // radius below min distance: singleton
				}
				if byCenter[c] == nil {
					order = append(order, c)
				}
				byCenter[c] = append(byCenter[c], v)
			}
			for _, c := range order {
				child := Node{Parent: nodeIdx, Center: c, Level: level, Members: byCenter[c]}
				t.Nodes = append(t.Nodes, child)
				next = append(next, len(t.Nodes)-1)
				byCenter[c] = nil
			}
		}
		frontier = next
	}
	for _, nodeIdx := range frontier {
		nd := t.Nodes[nodeIdx]
		if len(nd.Members) != 1 {
			return nil, fmt.Errorf("frt: level-0 cluster with %d members", len(nd.Members))
		}
		t.LeafOf[nd.Members[0]] = nodeIdx
	}
	t.pathCache = make([][]int, len(t.Nodes))
	return t, nil
}

// edgeIDs returns the edge sequence of the mapped graph path from a
// non-root node's center to its parent's center, walked back from the
// parent's center through the parent edges of the node's center.
func (t *Tree) edgeIDs(nodeIdx int) []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ids := t.pathCache[nodeIdx]; ids != nil {
		return ids
	}
	src := t.Nodes[nodeIdx].Center
	dst := t.Nodes[t.Nodes[nodeIdx].Parent].Center
	n := t.g.NumVertices()
	parents := t.parents[src*n : (src+1)*n]
	// Build rejected disconnected graphs, so every walk reaches src.
	hops := 0
	for cur := dst; cur != src; cur = t.g.Edge(parents[cur]).Other(cur) {
		hops++
	}
	ids := make([]int, hops)
	for cur := dst; cur != src; cur = t.g.Edge(ids[hops]).Other(cur) {
		hops--
		ids[hops] = parents[cur]
	}
	t.pathCache[nodeIdx] = ids
	return ids
}

// ParentPath returns the mapped graph path from the node's center to its
// parent's center (the image of the tree edge in the graph): a lightest
// path under the tree's normalized lengths. The Räcke load accounting
// charges each such path with the node's boundary capacity.
func (t *Tree) ParentPath(nodeIdx int) (graph.Path, error) {
	nd := t.Nodes[nodeIdx]
	if nd.Parent < 0 {
		return graph.Path{}, fmt.Errorf("frt: root has no parent path")
	}
	return graph.Path{Src: nd.Center, Dst: t.Nodes[nd.Parent].Center, EdgeIDs: t.edgeIDs(nodeIdx)}, nil
}

// Route returns the simple graph path obtained by routing u -> v through the
// tree: climb from both leaves to the lowest common ancestor, appending the
// mapped center paths up from u and, reversed, down to v into one walk,
// then simplify it.
func (t *Tree) Route(u, v int) (graph.Path, error) {
	if u == v {
		return graph.Path{Src: u, Dst: v}, nil
	}
	// Collect ancestor chains.
	chainU := t.ancestors(t.LeafOf[u])
	chainV := t.ancestors(t.LeafOf[v])
	// Trim the common suffix above the LCA.
	i, j := len(chainU)-1, len(chainV)-1
	for i > 0 && j > 0 && chainU[i-1] == chainV[j-1] {
		i--
		j--
	}
	// Up the tree from leaf(u) (whose center is u) to the LCA, then down
	// from the LCA to leaf(v) along reversed parent paths.
	var walk []int
	for k := 0; k < i; k++ {
		walk = append(walk, t.edgeIDs(chainU[k])...)
	}
	for k := j - 1; k >= 0; k-- {
		seg := t.edgeIDs(chainV[k])
		for x := len(seg) - 1; x >= 0; x-- {
			walk = append(walk, seg[x])
		}
	}
	return graph.Simplify(t.g, graph.Path{Src: u, Dst: v, EdgeIDs: walk})
}

func (t *Tree) ancestors(nodeIdx int) []int {
	var chain []int
	for cur := nodeIdx; cur >= 0; cur = t.Nodes[cur].Parent {
		chain = append(chain, cur)
	}
	return chain
}

// BoundaryCapacities returns, for every node, the total capacity of the
// edges crossing its cluster boundary (used by the Räcke load accounting).
// An edge crosses exactly the clusters on its endpoints' leaf-to-LCA chains
// below the LCA; each node sums its crossing edges in Edges() order.
func (t *Tree) BoundaryCapacities() []float64 {
	s := make([]float64, len(t.Nodes))
	for _, e := range t.g.Edges() {
		a, b := t.LeafOf[e.U], t.LeafOf[e.V]
		for a != b {
			if t.Nodes[a].Level <= t.Nodes[b].Level {
				s[a] += e.Capacity
				a = t.Nodes[a].Parent
			} else {
				s[b] += e.Capacity
				b = t.Nodes[b].Parent
			}
		}
	}
	return s
}

// treeDistance returns the tree-metric distance between u and v: the sum of
// 2^level terms along the leaf-to-leaf tree path. By construction it
// dominates the (normalized) graph distance.
func (t *Tree) treeDistance(u, v int) float64 {
	if u == v {
		return 0
	}
	chainU := t.ancestors(t.LeafOf[u])
	chainV := t.ancestors(t.LeafOf[v])
	i, j := len(chainU)-1, len(chainV)-1
	for i > 0 && j > 0 && chainU[i-1] == chainV[j-1] {
		i--
		j--
	}
	var d float64
	for k := 0; k < i; k++ {
		d += math.Exp2(float64(t.Nodes[chainU[k]].Level))
	}
	for k := 0; k < j; k++ {
		d += math.Exp2(float64(t.Nodes[chainV[k]].Level))
	}
	return d
}

// Validate checks laminarity and leaf coverage; used in tests.
func (t *Tree) Validate() error {
	n := t.g.NumVertices()
	seen := make([]bool, n)
	for v := 0; v < n; v++ {
		leaf := t.LeafOf[v]
		nd := t.Nodes[leaf]
		if len(nd.Members) != 1 || nd.Members[0] != v {
			return fmt.Errorf("frt: leaf of %d malformed", v)
		}
		if seen[v] {
			return fmt.Errorf("frt: vertex %d in two leaves", v)
		}
		seen[v] = true
	}
	// Every non-root node's members must be a subset of its parent's.
	for idx, nd := range t.Nodes {
		if nd.Parent < 0 {
			continue
		}
		parent := t.Nodes[nd.Parent]
		inParent := make(map[int]bool, len(parent.Members))
		for _, v := range parent.Members {
			inParent[v] = true
		}
		for _, v := range nd.Members {
			if !inParent[v] {
				return fmt.Errorf("frt: node %d member %d missing from parent", idx, v)
			}
		}
		if nd.Level >= parent.Level {
			return fmt.Errorf("frt: node %d level %d not below parent level %d", idx, nd.Level, parent.Level)
		}
	}
	return nil
}
