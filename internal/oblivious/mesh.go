package oblivious

import (
	"fmt"
	"math/rand/v2"

	"sparseroute/internal/flow"
	"sparseroute/internal/graph"
)

// MeshMode selects the classical mesh (grid) routing discipline.
type MeshMode int

const (
	// XY routes row-first then column-first: the deterministic
	// dimension-ordered routing of mesh interconnects. One path per pair —
	// the mesh analogue of greedy bit-fixing, with the same worst-case
	// concentration problems.
	XY MeshMode = iota
	// O1Turn picks XY or YX uniformly at random: two candidate paths,
	// a classical 1-bit randomization with much better worst-case load.
	O1Turn
	// ROMM routes through a uniformly random intermediate inside the
	// source-destination bounding box, each leg dimension-ordered: the
	// mesh analogue of Valiant's trick restricted to minimal paths.
	ROMM
)

// Mesh is dimension-ordered routing on a rows x cols grid as produced by
// gen.Grid (vertex (r, c) has index r*cols + c). It provides the classical
// interconnect baselines for the grid experiments: XY (deterministic),
// O1TURN (two paths), ROMM (randomized minimal).
type Mesh struct {
	g          *graph.Graph
	rows, cols int
	mode       MeshMode
}

// NewMesh validates that g is the rows x cols grid and returns the router.
func NewMesh(g *graph.Graph, rows, cols int, mode MeshMode) (*Mesh, error) {
	if rows < 1 || cols < 1 || g.NumVertices() != rows*cols {
		return nil, fmt.Errorf("oblivious: graph has %d vertices, want %d x %d", g.NumVertices(), rows, cols)
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := r*cols + c
			if c+1 < cols && g.FindEdge(v, v+1) < 0 {
				return nil, fmt.Errorf("oblivious: missing grid edge (%d,%d)-(%d,%d)", r, c, r, c+1)
			}
			if r+1 < rows && g.FindEdge(v, v+cols) < 0 {
				return nil, fmt.Errorf("oblivious: missing grid edge (%d,%d)-(%d,%d)", r, c, r+1, c)
			}
		}
	}
	if mode != XY && mode != O1Turn && mode != ROMM {
		return nil, fmt.Errorf("oblivious: unknown mesh mode %d", mode)
	}
	return &Mesh{g: g, rows: rows, cols: cols, mode: mode}, nil
}

// Graph implements Router.
func (m *Mesh) Graph() *graph.Graph { return m.g }

func (m *Mesh) coords(v int) (r, c int) { return v / m.cols, v % m.cols }

// straight walks from u to w changing only one coordinate at a time:
// columns first when colFirst, rows first otherwise.
func (m *Mesh) straight(u, w int, colFirst bool) graph.Path {
	p := graph.Path{Src: u, Dst: w}
	cur := u
	step := func(next int) {
		p.EdgeIDs = append(p.EdgeIDs, m.g.FindEdge(cur, next))
		cur = next
	}
	r0, c0 := m.coords(u)
	r1, c1 := m.coords(w)
	moveCols := func() {
		d := towards(c0, c1)
		for c0 != c1 {
			c0 += d
			step(r0*m.cols + c0)
		}
	}
	moveRows := func() {
		d := towards(r0, r1)
		for r0 != r1 {
			r0 += d
			step(r0*m.cols + c0)
		}
	}
	if colFirst {
		moveCols()
		moveRows()
	} else {
		moveRows()
		moveCols()
	}
	return p
}

// Sample implements Router.
func (m *Mesh) Sample(u, v int, rng *rand.Rand) (graph.Path, error) {
	if u == v {
		return graph.Path{Src: u, Dst: v}, nil
	}
	switch m.mode {
	case XY:
		return m.straight(u, v, true), nil
	case O1Turn:
		return m.straight(u, v, rng.IntN(2) == 0), nil
	default: // ROMM
		r0, c0 := m.coords(u)
		r1, c1 := m.coords(v)
		rowArc := arcPositions(r0, r1)
		colArc := arcPositions(c0, c1)
		w := rowArc[rng.IntN(len(rowArc))]*m.cols + colArc[rng.IntN(len(colArc))]
		first := m.straight(u, w, true)
		second := m.straight(w, v, false)
		joined, err := graph.Concat(first, second)
		if err != nil {
			return graph.Path{}, err
		}
		return graph.Simplify(m.g, joined)
	}
}

// towards returns the per-step increment from coordinate a to b.
func towards(a, b int) int {
	switch {
	case a < b:
		return 1
	case a > b:
		return -1
	}
	return 0
}

// arcPositions lists the coordinate positions between a and b inclusive.
func arcPositions(a, b int) []int {
	out := []int{a}
	for d, cur := towards(a, b), a; cur != b; {
		cur += d
		out = append(out, cur)
	}
	return out
}

// Distribution implements Router.
func (m *Mesh) Distribution(u, v int) ([]flow.WeightedPath, error) {
	if u == v {
		return []flow.WeightedPath{{Path: graph.Path{Src: u, Dst: v}, Weight: 1}}, nil
	}
	switch m.mode {
	case XY:
		return []flow.WeightedPath{{Path: m.straight(u, v, true), Weight: 1}}, nil
	case O1Turn:
		xy := m.straight(u, v, true)
		yx := m.straight(u, v, false)
		if xy.Key() == yx.Key() { // same row or column: one path
			return []flow.WeightedPath{{Path: xy, Weight: 1}}, nil
		}
		return []flow.WeightedPath{
			{Path: xy, Weight: 0.5},
			{Path: yx, Weight: 0.5},
		}, nil
	default: // ROMM: enumerate the minimal rectangle
		r0, c0 := m.coords(u)
		r1, c1 := m.coords(v)
		rowArc := arcPositions(r0, r1)
		colArc := arcPositions(c0, c1)
		wgt := 1.0 / float64(len(rowArc)*len(colArc))
		byKey := make(map[string]int)
		var out []flow.WeightedPath
		for _, r := range rowArc {
			for _, c := range colArc {
				w := r*m.cols + c
				first := m.straight(u, w, true)
				second := m.straight(w, v, false)
				joined, err := graph.Concat(first, second)
				if err != nil {
					return nil, err
				}
				p, err := graph.Simplify(m.g, joined)
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
		}
		return out, nil
	}
}
