package oblivious

import (
	"fmt"
	"math"
	"math/rand/v2"

	"sparseroute/internal/flow"
	"sparseroute/internal/frt"
	"sparseroute/internal/graph"
)

// Raecke is a congestion-competitive oblivious routing built as a mixture of
// FRT decomposition trees, constructed with a multiplicative-weights loop:
// each round builds a tree under lengths proportional to the current edge
// penalties, charges every edge with the relative load the tree's cluster
// hierarchy would impose on it, and exponentially increases the penalties of
// overloaded edges. Routing a pair picks a tree from the mixture and walks
// the mapped cluster-center paths.
//
// This is the practical construction used in SMORE/Yates standing in for
// Räcke's O(log n)-competitive hierarchical decomposition [28]: same object
// (a distribution over trees mapped back to graph paths), empirical rather
// than proven constants. See DESIGN.md's substitution table.
type Raecke struct {
	g     *graph.Graph
	trees []*frt.Tree
	// weights[i] is tree i's mixture probability (sums to 1).
	weights []float64
	// cumWeights[i] = weights[0] + ... + weights[i], for sampling.
	cumWeights []float64
}

// RaeckeOptions tunes the construction.
type RaeckeOptions struct {
	// NumTrees is the mixture size (default 12).
	NumTrees int
	// Eta is the multiplicative-weights learning rate (default 0.5).
	Eta float64
}

func (o *RaeckeOptions) withDefaults() RaeckeOptions {
	out := RaeckeOptions{NumTrees: 12, Eta: 0.5}
	if o != nil {
		if o.NumTrees > 0 {
			out.NumTrees = o.NumTrees
		}
		if o.Eta > 0 {
			out.Eta = o.Eta
		}
	}
	return out
}

// NewRaecke builds the tree mixture for g.
func NewRaecke(g *graph.Graph, opt *RaeckeOptions, rng *rand.Rand) (*Raecke, error) {
	o := opt.withDefaults()
	if !g.Connected() {
		return nil, fmt.Errorf("oblivious: Raecke requires a connected graph")
	}
	m := g.NumEdges()
	weights := make([]float64, m)
	for i := range weights {
		weights[i] = 1
	}
	r := &Raecke{g: g}
	lengths := make([]float64, m)
	for t := 0; t < o.NumTrees; t++ {
		for id := range lengths {
			lengths[id] = weights[id] / g.Edge(id).Capacity
		}
		tree, err := frt.Build(g, lengths, rng)
		if err != nil {
			return nil, err
		}
		r.trees = append(r.trees, tree)
		// Relative load the tree imposes: each tree edge (node -> parent)
		// carries the node's boundary capacity along its mapped path.
		load := make([]float64, m)
		boundary := tree.BoundaryCapacities()
		for idx, bc := range boundary {
			if tree.Nodes[idx].Parent < 0 {
				continue
			}
			if bc == 0 {
				continue
			}
			p, err := tree.ParentPath(idx)
			if err != nil {
				return nil, err
			}
			for _, id := range p.EdgeIDs {
				load[id] += bc
			}
		}
		var maxR float64
		for id := 0; id < m; id++ {
			load[id] /= g.Edge(id).Capacity
			if load[id] > maxR {
				maxR = load[id]
			}
		}
		if maxR > 0 {
			for id := 0; id < m; id++ {
				weights[id] *= math.Exp(o.Eta * load[id] / maxR)
			}
		}
	}
	// The trees mix uniformly.
	r.weights = make([]float64, len(r.trees))
	r.cumWeights = make([]float64, len(r.weights))
	w, cum := 1/float64(len(r.trees)), 0.0
	for i := range r.weights {
		r.weights[i] = w
		cum += w
		r.cumWeights[i] = cum
	}
	return r, nil
}

// Graph implements Router.
func (r *Raecke) Graph() *graph.Graph { return r.g }

// numTrees returns the mixture size.
func (r *Raecke) numTrees() int { return len(r.trees) }

// Sample implements Router: route through a tree drawn from the mixture.
func (r *Raecke) Sample(u, v int, rng *rand.Rand) (graph.Path, error) {
	x := rng.Float64()
	idx := len(r.trees) - 1
	for i, c := range r.cumWeights {
		if x <= c {
			idx = i
			break
		}
	}
	return r.trees[idx].Route(u, v)
}

// Distribution implements Router: the tree mixture with identical paths
// merged.
func (r *Raecke) Distribution(u, v int) ([]flow.WeightedPath, error) {
	byKey := make(map[string]int)
	var out []flow.WeightedPath
	for i, tree := range r.trees {
		p, err := tree.Route(u, v)
		if err != nil {
			return nil, err
		}
		k := p.Key()
		if idx, ok := byKey[k]; ok {
			out[idx].Weight += r.weights[i]
		} else {
			byKey[k] = len(out)
			out = append(out, flow.WeightedPath{Path: p, Weight: r.weights[i]})
		}
	}
	return out, nil
}
