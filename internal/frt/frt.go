// Package frt builds random hierarchical decomposition trees in the style of
// Fakcharoenphol–Rao–Talwar: a random permutation and a random radius scale
// produce a laminar family of clusters whose tree metric dominates the graph
// metric and approximates it by O(log n) in expectation.
//
// The Räcke oblivious routing (internal/oblivious) is a congestion-adaptive
// mixture of these trees: each tree edge maps to a lightest path between
// cluster centers, and routing through the tree concatenates those paths.
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

	g       *graph.Graph
	lengths []float64
	// mu guards the lazily built caches below: trees are routed through
	// concurrently by the parallel samplers.
	mu sync.Mutex
	// pathCache[node] is the mapped graph path from the node's center to its
	// parent's center, computed lazily.
	pathCache []*graph.Path
	// distCache[v] caches the Dijkstra parents from source center v (nil
	// until first needed).
	distCache [][]int
}

// Build constructs one random FRT-style decomposition of g under the given
// edge lengths (all positive). rng drives the permutation and the radius
// scale. The tree keeps its own copy of lengths for the center-to-center
// paths it maps lazily, so the caller may reuse the slice.
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
	// All-pairs distances via n Dijkstras (benchmark scale).
	dist := make([][]float64, n)
	for v := 0; v < n; v++ {
		d, _ := g.Dijkstra(v, norm)
		dist[v] = d
	}
	var diam float64
	for v := 0; v < n; v++ {
		for w := 0; w < n; w++ {
			if math.IsInf(dist[v][w], 1) {
				return nil, fmt.Errorf("frt: graph is disconnected")
			}
			if dist[v][w] > diam {
				diam = dist[v][w]
			}
		}
	}
	levels := 1
	for float64(int64(1)<<levels) <= 2*diam+1 {
		levels++
	}
	beta := 1 + float64(rng.Float64()) // β ∈ [1,2)
	perm := rng.Perm(n)

	t := &Tree{
		g:         g,
		lengths:   append([]float64(nil), lengths...),
		LeafOf:    make([]int, n),
		distCache: make([][]int, n),
	}

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
					if dist[cand][v] <= radius {
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
	t.pathCache = make([]*graph.Path, len(t.Nodes))
	return t, nil
}

// edgePath returns the mapped graph path from node's center to its parent's
// center under the tree's edge lengths.
func (t *Tree) edgePath(nodeIdx int) (graph.Path, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cached := t.pathCache[nodeIdx]; cached != nil {
		return *cached, nil
	}
	nd := t.Nodes[nodeIdx]
	if nd.Parent < 0 {
		return graph.Path{}, fmt.Errorf("frt: root has no parent path")
	}
	src := nd.Center
	dst := t.Nodes[nd.Parent].Center
	if src == dst {
		p := graph.Path{Src: src, Dst: dst}
		t.pathCache[nodeIdx] = &p
		return p, nil
	}
	parents := t.distCache[src]
	if parents == nil {
		_, parents = t.g.Dijkstra(src, t.lengths)
		t.distCache[src] = parents
	}
	// Extract src -> dst from the parent array (walk back from dst).
	var ids []int
	cur := dst
	for cur != src {
		id := parents[cur]
		if id < 0 {
			return graph.Path{}, graph.ErrNoPath
		}
		ids = append(ids, id)
		cur = t.g.Edge(id).Other(cur)
	}
	for i, j := 0, len(ids)-1; i < j; i, j = i+1, j-1 {
		ids[i], ids[j] = ids[j], ids[i]
	}
	p := graph.Path{Src: src, Dst: dst, EdgeIDs: ids}
	t.pathCache[nodeIdx] = &p
	return p, nil
}

// ParentPath returns the mapped graph path from the node's center to its
// parent's center (the image of the tree edge in the graph). The Räcke load
// accounting charges each such path with the node's boundary capacity.
func (t *Tree) ParentPath(nodeIdx int) (graph.Path, error) {
	return t.edgePath(nodeIdx)
}

// Route returns the simple graph path obtained by routing u -> v through the
// tree: climb from both leaves to the lowest common ancestor, concatenating
// the mapped center paths, then simplify.
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
	up := chainU[:i+1]   // leaf(u) .. LCA
	down := chainV[:j+1] // leaf(v) .. LCA
	walk := graph.Path{Src: u, Dst: u}
	// Up the tree: center(leaf u) == u; append each node->parent path.
	for k := 0; k+1 < len(up); k++ {
		seg, err := t.edgePath(up[k])
		if err != nil {
			return graph.Path{}, err
		}
		joined, err := graph.Concat(walk, seg)
		if err != nil {
			return graph.Path{}, err
		}
		walk = joined
	}
	// Down the other side: reversed parent paths.
	for k := len(down) - 2; k >= 0; k-- {
		seg, err := t.edgePath(down[k])
		if err != nil {
			return graph.Path{}, err
		}
		joined, err := graph.Concat(walk, seg.Reverse())
		if err != nil {
			return graph.Path{}, err
		}
		walk = joined
	}
	return graph.Simplify(t.g, walk)
}

func (t *Tree) ancestors(nodeIdx int) []int {
	var chain []int
	for cur := nodeIdx; cur >= 0; cur = t.Nodes[cur].Parent {
		chain = append(chain, cur)
	}
	return chain
}

// BoundaryCapacity returns the total capacity of edges crossing the cluster
// boundary of the given node (used by the Räcke load accounting).
func (t *Tree) BoundaryCapacity(nodeIdx int) float64 {
	inside := make([]bool, t.g.NumVertices())
	for _, v := range t.Nodes[nodeIdx].Members {
		inside[v] = true
	}
	var s float64
	for _, e := range t.g.Edges() {
		if inside[e.U] != inside[e.V] {
			s += e.Capacity
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
