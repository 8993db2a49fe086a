package graph

import (
	"errors"
	"fmt"
)

// Path is a walk in a graph represented as the sequence of edge IDs traversed
// from Src to Dst. An empty edge list is valid only when Src == Dst.
//
// Paths are the currency of the whole repository: oblivious routings emit
// them, path systems store them, and congestion accounting consumes them.
type Path struct {
	Src, Dst int
	EdgeIDs  []int
}

// Hops returns the hop length |P| (number of edges).
func (p Path) Hops() int { return len(p.EdgeIDs) }

// Vertices returns the vertex sequence of p in g, from Src to Dst inclusive.
func (p Path) Vertices(g *Graph) ([]int, error) {
	out := make([]int, 0, len(p.EdgeIDs)+1)
	cur := p.Src
	out = append(out, cur)
	for _, id := range p.EdgeIDs {
		if id < 0 || id >= g.NumEdges() {
			return nil, fmt.Errorf("graph: path uses unknown edge %d", id)
		}
		e := g.Edge(id)
		if e.U != cur && e.V != cur {
			return nil, fmt.Errorf("graph: path edge %d (%d,%d) does not continue from vertex %d", id, e.U, e.V, cur)
		}
		cur = e.Other(cur)
		out = append(out, cur)
	}
	if cur != p.Dst {
		return nil, fmt.Errorf("graph: path ends at %d, want %d", cur, p.Dst)
	}
	return out, nil
}

// Validate checks that p is a connected walk from Src to Dst in g.
func (p Path) Validate(g *Graph) error {
	_, err := p.Vertices(g)
	return err
}

// IsSimple reports whether p visits no vertex twice. An invalid path is not
// simple.
func (p Path) IsSimple(g *Graph) bool {
	vs, err := p.Vertices(g)
	if err != nil {
		return false
	}
	if len(vs) == 1 {
		return true // Src == Dst, which Vertices does not range-check
	}
	seen := make([]bool, g.NumVertices())
	for _, v := range vs {
		if seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// Reverse returns the same path traversed from Dst to Src.
func (p Path) Reverse() Path {
	rev := make([]int, len(p.EdgeIDs))
	for i, id := range p.EdgeIDs {
		rev[len(p.EdgeIDs)-1-i] = id
	}
	return Path{Src: p.Dst, Dst: p.Src, EdgeIDs: rev}
}

// Key returns a canonical string key identifying the path's edge sequence in
// a direction-independent way: the same physical path traversed in either
// direction yields the same key. Used to deduplicate sampled paths.
func (p Path) Key() string {
	ids := p.EdgeIDs
	// Orient canonically: lexicographically smaller of forward and reverse.
	rev := false
	for i, j := 0, len(ids)-1; i < j; i, j = i+1, j-1 {
		if ids[i] != ids[j] {
			rev = ids[j] < ids[i]
			break
		}
	}
	buf := make([]byte, 0, 4*len(ids)+8)
	appendInt := func(x int) {
		// Small custom encoder to avoid fmt in a hot path.
		if x == 0 {
			buf = append(buf, '0')
			return
		}
		var tmp [20]byte
		i := len(tmp)
		for x > 0 {
			i--
			tmp[i] = byte('0' + x%10)
			x /= 10
		}
		buf = append(buf, tmp[i:]...)
	}
	if rev {
		for i := len(ids) - 1; i >= 0; i-- {
			appendInt(ids[i])
			buf = append(buf, ',')
		}
	} else {
		for _, id := range ids {
			appendInt(id)
			buf = append(buf, ',')
		}
	}
	return string(buf)
}

// ErrNoPath is returned when two vertices are disconnected.
var ErrNoPath = errors.New("graph: no path between the requested vertices")

// Concat joins two walks p (Src..mid) and q (mid..Dst). It returns an error
// if p.Dst != q.Src.
func Concat(p, q Path) (Path, error) {
	if p.Dst != q.Src {
		return Path{}, fmt.Errorf("graph: cannot concatenate path ending at %d with path starting at %d", p.Dst, q.Src)
	}
	ids := make([]int, 0, len(p.EdgeIDs)+len(q.EdgeIDs))
	ids = append(ids, p.EdgeIDs...)
	ids = append(ids, q.EdgeIDs...)
	return Path{Src: p.Src, Dst: q.Dst, EdgeIDs: ids}, nil
}

// Simplify removes loops from a walk, producing a simple path with the same
// endpoints that uses a subsequence of the walk's edges. The paper's routings
// always route on simple paths; concatenated tree routes and Valiant routes
// are simplified through this.
func Simplify(g *Graph, p Path) (Path, error) {
	vs, err := p.Vertices(g)
	if err != nil {
		return Path{}, err
	}
	if len(vs) == 1 {
		return Path{Src: p.Src, Dst: p.Dst}, nil // Src == Dst: nothing to index
	}
	// lastIndex[v] = last position of v in the vertex sequence. Walking from
	// the front and jumping to the last occurrence of each visited vertex
	// removes every loop in one pass.
	lastIndex := make([]int, g.NumVertices())
	for i, v := range vs {
		lastIndex[v] = i
	}
	var ids []int
	i := 0
	for i < len(vs)-1 {
		if j := lastIndex[vs[i]]; j > i {
			i = j
			if i >= len(vs)-1 {
				break
			}
		}
		ids = append(ids, p.EdgeIDs[i])
		i++
	}
	out := Path{Src: p.Src, Dst: p.Dst, EdgeIDs: ids}
	if err := out.Validate(g); err != nil {
		return Path{}, fmt.Errorf("graph: simplify produced invalid path: %w", err)
	}
	return out, nil
}

// PathFromVertices builds a Path from a vertex sequence, choosing for each
// consecutive pair an arbitrary edge joining them.
func PathFromVertices(g *Graph, vs []int) (Path, error) {
	if len(vs) == 0 {
		return Path{}, errors.New("graph: empty vertex sequence")
	}
	p := Path{Src: vs[0], Dst: vs[len(vs)-1]}
	for i := 0; i+1 < len(vs); i++ {
		id := g.FindEdge(vs[i], vs[i+1])
		if id < 0 {
			return Path{}, fmt.Errorf("graph: no edge between %d and %d", vs[i], vs[i+1])
		}
		p.EdgeIDs = append(p.EdgeIDs, id)
	}
	return p, nil
}
