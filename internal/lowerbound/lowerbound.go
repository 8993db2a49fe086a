// Package lowerbound implements the Section 8 adversary: on the double-star
// gadget B_{k,p} (two p-leaf stars whose centers are joined through k middle
// vertices), every s-sparse path system admits a permutation demand it
// routes badly, because each leaf-to-leaf simple path crosses exactly one
// middle vertex and pigeonhole forces many pairs' candidate sets into the
// same small set of middle vertices.
//
// The adversary here is fully constructive, mirroring the proof of
// Lemma 8.1: enumerate the size-t subsets S of the middle vertices, collect
// the leaf pairs whose candidate middle set lies inside S, extract a maximum
// matching among them (the Hall-criterion step), and emit the matching as a
// permutation demand. The semi-oblivious routing is then forced to push the
// whole matched demand through t middle vertices while the offline optimum
// spreads it over all k.
package lowerbound

import (
	"fmt"
	"math"

	"sparseroute/internal/core"
	"sparseroute/internal/demand"
	"sparseroute/internal/graph"
	"sparseroute/internal/graph/gen"
)

// Adversary is the result of the search: the bad permutation demand and the
// certificate quantities of Lemma 8.1.
type Adversary struct {
	// Demand is the permutation demand between matched leaves.
	Demand *demand.Demand
	// Subset is the chosen set of middle vertices that every candidate path
	// of every matched pair crosses.
	Subset []int
	// MatchingSize is |M|, the number of matched pairs.
	MatchingSize int
	// ForcedCongestion is the congestion lower bound |M| / |Subset| the
	// semi-oblivious routing cannot beat (each matched packet must cross
	// one of the |Subset| middle vertices, each of degree 2).
	ForcedCongestion float64
	// OptCongestion is the offline bound ceil(|M| / k): routing matched
	// pairs round-robin over all k middle vertices.
	OptCongestion float64
	// RatioLowerBound = ForcedCongestion / OptCongestion.
	RatioLowerBound float64
}

// middleSet returns, for each (leftLeaf, rightLeaf) candidate set in ps, the
// set of middle vertices its paths cross, as a bitmask over ds.Middle.
// Every simple left-leaf to right-leaf path in B_{k,p} crosses exactly one
// middle vertex.
func middleSet(ds gen.DoubleStar, ps *core.PathSystem, u, v int, midIndex map[int]int) (uint64, error) {
	var mask uint64
	paths := ps.Unique(u, v)
	if len(paths) == 0 {
		return 0, fmt.Errorf("lowerbound: pair (%d,%d) has no candidates", u, v)
	}
	for _, p := range paths {
		vs, err := p.Vertices(ps.Graph())
		if err != nil {
			return 0, err
		}
		found := false
		for _, w := range vs {
			if idx, ok := midIndex[w]; ok {
				mask |= 1 << uint(idx)
				found = true
			}
		}
		if !found {
			return 0, fmt.Errorf("lowerbound: candidate for (%d,%d) avoids all middle vertices (not a B_kp path)", u, v)
		}
	}
	return mask, nil
}

// FindAdversary searches for the worst permutation demand against ps on the
// gadget ds, over middle subsets of size subsetSize (use the path system's
// per-pair sparsity; smaller subsets give stronger bounds when feasible).
// ps must contain candidates for every (leftLeaf, rightLeaf) pair.
func FindAdversary(ds gen.DoubleStar, ps *core.PathSystem, subsetSize int) (*Adversary, error) {
	k := len(ds.Middle)
	if subsetSize < 1 || subsetSize > k {
		return nil, fmt.Errorf("lowerbound: subset size %d out of range [1,%d]", subsetSize, k)
	}
	if k > 30 {
		return nil, fmt.Errorf("lowerbound: k=%d too large for subset enumeration", k)
	}
	midIndex := make(map[int]int, k)
	for i, m := range ds.Middle {
		midIndex[m] = i
	}
	p := len(ds.LeftLeaves)
	masks := make([][]uint64, p)
	for i, u := range ds.LeftLeaves {
		masks[i] = make([]uint64, p)
		for j, v := range ds.RightLeaves {
			m, err := middleSet(ds, ps, u, v, midIndex)
			if err != nil {
				return nil, err
			}
			masks[i][j] = m
		}
	}
	var best *Adversary
	// Enumerate all size-subsetSize subsets of [k] as bitmasks.
	for sub := uint64(1); sub < 1<<uint(k); sub++ {
		if popcount(sub) != subsetSize {
			continue
		}
		// Pairs whose middle set lies inside sub.
		adj := make([][]int, p)
		any := false
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				if masks[i][j]&^sub == 0 {
					adj[i] = append(adj[i], j)
					any = true
				}
			}
		}
		if !any {
			continue
		}
		matchL := bipartiteMatch(p, p, adj)
		size := 0
		for _, r := range matchL {
			if r >= 0 {
				size++
			}
		}
		if size == 0 {
			continue
		}
		forced := float64(size) / float64(subsetSize)
		opt := math.Ceil(float64(size) / float64(k))
		ratio := forced / opt
		if best == nil || ratio > best.RatioLowerBound {
			d := demand.New()
			var subset []int
			for i := 0; i < k; i++ {
				if sub&(1<<uint(i)) != 0 {
					subset = append(subset, ds.Middle[i])
				}
			}
			for l, r := range matchL {
				if r >= 0 {
					d.Set(ds.LeftLeaves[l], ds.RightLeaves[r], 1)
				}
			}
			best = &Adversary{
				Demand:           d,
				Subset:           subset,
				MatchingSize:     size,
				ForcedCongestion: forced,
				OptCongestion:    opt,
				RatioLowerBound:  ratio,
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("lowerbound: no adversarial demand found")
	}
	return best, nil
}

func popcount(x uint64) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}

// optimalRouting constructs the offline routing certifying Adversary.
// OptCongestion: matched pairs are assigned middle vertices round-robin over
// all k, giving congestion ceil(|M|/k) on the center-middle edges.
func optimalRouting(ds gen.DoubleStar, adv *Adversary) (*core.PathSystem, *demand.Demand, error) {
	g := ds.G
	ps := core.NewPathSystem(g)
	i := 0
	for _, pr := range adv.Demand.Support() {
		mid := ds.Middle[i%len(ds.Middle)]
		i++
		// Identify which endpoint is the left leaf.
		left, right := pr.U, pr.V
		if !isIn(ds.LeftLeaves, left) {
			left, right = right, left
		}
		vs := []int{left, ds.LeftCenter, mid, ds.RightCenter, right}
		path, err := graph.PathFromVertices(g, vs)
		if err != nil {
			return nil, nil, err
		}
		if err := ps.AddPath(path); err != nil {
			return nil, nil, err
		}
	}
	return ps, adv.Demand, nil
}

func isIn(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
