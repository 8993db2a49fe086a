package core

import (
	"math"
)

// SystemStats summarizes the structural properties of a path system — the
// numbers an operator checks before installing it: how many paths, how long,
// and how diverse (edge-disjointness is what buys failure robustness and
// congestion spreading).
type SystemStats struct {
	Pairs      int
	TotalPaths int
	// Sparsity counts sampled multiplicity; UniqueSparsity distinct paths.
	Sparsity       int
	UniqueSparsity int
	// MeanUnique is the average number of distinct candidates per pair.
	MeanUnique float64
	// Hops statistics over distinct candidates.
	MeanHops float64
	MaxHops  int
	// MeanStretch is the mean ratio of candidate hops to the pair's
	// shortest candidate hops (>= 1; how much longer than necessary the
	// alternatives are).
	MeanStretch float64
	// DisjointFraction is the fraction of unordered candidate pairs within
	// the same vertex pair that are fully edge-disjoint — the diversity
	// measure behind robustness.
	DisjointFraction float64
}

// Stats computes the summary. Pairs with no candidates are ignored.
func (ps *PathSystem) Stats() SystemStats {
	var st SystemStats
	st.Sparsity = ps.Sparsity()
	st.UniqueSparsity = ps.UniqueSparsity()
	st.TotalPaths = ps.TotalPaths()
	var hopSum, stretchSum float64
	var hopCount, stretchCount int
	var disjoint, comparisons int
	var uniqueSum int
	for _, pair := range ps.Pairs() {
		st.Pairs++
		unique := ps.Unique(pair.U, pair.V)
		uniqueSum += len(unique)
		minHops := math.MaxInt
		for _, p := range unique {
			h := p.Hops()
			hopSum += float64(h)
			hopCount++
			if h > st.MaxHops {
				st.MaxHops = h
			}
			if h < minHops {
				minHops = h
			}
		}
		if minHops > 0 && minHops != math.MaxInt {
			for _, p := range unique {
				stretchSum += float64(p.Hops()) / float64(minHops)
				stretchCount++
			}
		}
		for i := 0; i < len(unique); i++ {
			edges := make(map[int]bool, len(unique[i].EdgeIDs))
			for _, id := range unique[i].EdgeIDs {
				edges[id] = true
			}
			for j := i + 1; j < len(unique); j++ {
				comparisons++
				shared := false
				for _, id := range unique[j].EdgeIDs {
					if edges[id] {
						shared = true
						break
					}
				}
				if !shared {
					disjoint++
				}
			}
		}
	}
	if st.Pairs > 0 {
		st.MeanUnique = float64(uniqueSum) / float64(st.Pairs)
	}
	if hopCount > 0 {
		st.MeanHops = hopSum / float64(hopCount)
	}
	if stretchCount > 0 {
		st.MeanStretch = stretchSum / float64(stretchCount)
	}
	if comparisons > 0 {
		st.DisjointFraction = float64(disjoint) / float64(comparisons)
	}
	return st
}
