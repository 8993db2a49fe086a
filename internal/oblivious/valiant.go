package oblivious

import (
	"fmt"
	"math/rand/v2"

	"sparseroute/internal/flow"
	"sparseroute/internal/graph"
)

// Valiant is the classical two-phase randomized routing on the hypercube
// [VB81]: to route u -> v, pick a uniformly random intermediate vertex w,
// greedily fix bits from u to w, then from w to v. It is O(1)-competitive in
// expectation on permutation demands and is the base oblivious routing for
// the paper's hypercube case (Section 5.1).
type Valiant struct {
	g   *graph.Graph
	dim int
	// edgeID[v][i] is the ID of the edge flipping bit i at vertex v.
	edgeID [][]int
}

// NewValiant builds the router for a hypercube produced by gen.Hypercube.
// It verifies the graph really is the dim-cube.
func NewValiant(g *graph.Graph, dim int) (*Valiant, error) {
	n := 1 << dim
	if g.NumVertices() != n {
		return nil, fmt.Errorf("oblivious: graph has %d vertices, want 2^%d", g.NumVertices(), dim)
	}
	edgeID := make([][]int, n)
	for v := 0; v < n; v++ {
		edgeID[v] = make([]int, dim)
		for i := range edgeID[v] {
			edgeID[v][i] = -1
		}
	}
	for _, e := range g.Edges() {
		x := e.U ^ e.V
		if x == 0 || x&(x-1) != 0 {
			return nil, fmt.Errorf("oblivious: edge (%d,%d) is not a hypercube edge", e.U, e.V)
		}
		bit := 0
		for x>>1 != 0 {
			x >>= 1
			bit++
		}
		edgeID[e.U][bit] = e.ID
		edgeID[e.V][bit] = e.ID
	}
	for v := 0; v < n; v++ {
		for i := 0; i < dim; i++ {
			if edgeID[v][i] < 0 {
				return nil, fmt.Errorf("oblivious: hypercube edge flipping bit %d at %d missing", i, v)
			}
		}
	}
	return &Valiant{g: g, dim: dim, edgeID: edgeID}, nil
}

// Graph implements Router.
func (r *Valiant) Graph() *graph.Graph { return r.g }

// bitFix returns the greedy bit-fixing walk from u to v, correcting bits from
// least to most significant.
func (r *Valiant) bitFix(u, v int) graph.Path {
	p := graph.Path{Src: u, Dst: v}
	cur := u
	for i := 0; i < r.dim; i++ {
		if (cur^v)&(1<<i) != 0 {
			p.EdgeIDs = append(p.EdgeIDs, r.edgeID[cur][i])
			cur ^= 1 << i
		}
	}
	return p
}

// viaIntermediate returns the Valiant path through intermediate w,
// simplified to a simple path.
func (r *Valiant) viaIntermediate(u, v, w int) (graph.Path, error) {
	first := r.bitFix(u, w)
	second := r.bitFix(w, v)
	joined, err := graph.Concat(first, second)
	if err != nil {
		return graph.Path{}, err
	}
	return graph.Simplify(r.g, joined)
}

// Sample implements Router: a uniformly random intermediate.
func (r *Valiant) Sample(u, v int, rng *rand.Rand) (graph.Path, error) {
	w := rng.IntN(1 << r.dim)
	return r.viaIntermediate(u, v, w)
}

// Distribution implements Router. The support is the full set of n
// intermediate choices (duplicates merged), so this costs O(n·dim) per pair.
func (r *Valiant) Distribution(u, v int) ([]flow.WeightedPath, error) {
	n := 1 << r.dim
	byKey := make(map[string]int)
	var out []flow.WeightedPath
	w := 1.0 / float64(n)
	for mid := 0; mid < n; mid++ {
		p, err := r.viaIntermediate(u, v, mid)
		if err != nil {
			return nil, err
		}
		k := p.Key()
		if idx, ok := byKey[k]; ok {
			out[idx].Weight += w
		} else {
			byKey[k] = len(out)
			out = append(out, flow.WeightedPath{Path: p, Weight: w})
		}
	}
	return out, nil
}

// GreedyBitFix is the deterministic single-path hypercube routing (fix bits
// low to high). It is the paper's cautionary baseline: on the transpose
// permutation it suffers Ω(sqrt(N)) congestion on one edge, which experiment
// E3 reproduces.
type GreedyBitFix struct {
	v *Valiant
}

// NewGreedyBitFix wraps a Valiant router's bit-fixing primitive.
func NewGreedyBitFix(g *graph.Graph, dim int) (*GreedyBitFix, error) {
	v, err := NewValiant(g, dim)
	if err != nil {
		return nil, err
	}
	return &GreedyBitFix{v: v}, nil
}

// Graph implements Router.
func (r *GreedyBitFix) Graph() *graph.Graph { return r.v.g }

// Sample implements Router; deterministic point mass.
func (r *GreedyBitFix) Sample(u, v int, _ *rand.Rand) (graph.Path, error) {
	return r.v.bitFix(u, v), nil
}

// Distribution implements Router.
func (r *GreedyBitFix) Distribution(u, v int) ([]flow.WeightedPath, error) {
	return []flow.WeightedPath{{Path: r.v.bitFix(u, v), Weight: 1}}, nil
}
