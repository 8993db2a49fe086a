package mcf

import (
	"context"
	"math/rand/v2"
	"testing"

	"sparseroute/internal/demand"
	"sparseroute/internal/graph"
	"sparseroute/internal/graph/gen"
)

// benchInstance: expander + permutation demand + 4 random short candidate
// paths per pair.
func benchInstance(b *testing.B, n, pairs int) (*graph.Graph, map[demand.Pair][]graph.Path, *demand.Demand) {
	b.Helper()
	rng := rand.New(rand.NewPCG(3, 3))
	g := gen.RandomRegular(n, 4, rng)
	d := demand.RandomPermutation(n, pairs, rng)
	return g, benchCandidates(b, g, d, rng), d
}

// benchCandidates draws 4 candidates per support pair of d: lightest paths
// under fresh random lengths, so they are short, overlapping and sometimes
// equal — the shape of an R=4 sample.
func benchCandidates(b *testing.B, g *graph.Graph, d *demand.Demand, rng *rand.Rand) map[demand.Pair][]graph.Path {
	b.Helper()
	cand := make(map[demand.Pair][]graph.Path)
	lengths := make([]float64, g.NumEdges())
	for _, p := range d.Support() {
		for j := 0; j < 4; j++ {
			cand[p] = append(cand[p], randomPath(b, g, p, lengths, rng))
		}
	}
	return cand
}

// randomPath is the lightest path joining p under fresh random lengths in
// [1, 2), drawn into the caller's scratch slice.
func randomPath(tb testing.TB, g *graph.Graph, p demand.Pair, lengths []float64, rng *rand.Rand) graph.Path {
	tb.Helper()
	for i := range lengths {
		lengths[i] = 1 + rng.Float64()
	}
	path, err := g.LightestPath(p.U, p.V, lengths)
	if err != nil {
		tb.Fatal(err)
	}
	return path
}

func BenchmarkAdaptExactLP(b *testing.B) {
	g, cand, d := benchInstance(b, 32, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MinCongestionOnPathsExactCtx(context.Background(), g, cand, d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdaptMWU(b *testing.B) {
	g, cand, d := benchInstance(b, 64, 16)
	opt := &Options{Iterations: 128}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MinCongestionOnPathsCtx(context.Background(), g, cand, d, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinCongestionGrid100 is the MWU at the size the bench harness
// serves (bench/ workload grid100-dense): grid-10x10, a 600-pair gravity
// matrix, 4 sampled candidates per pair, the default 256 rounds. "cold" is a
// full epoch solve; "base4" is the delta step's shape — 4 pairs re-solved
// against the other pairs' loads as a fixed background.
func BenchmarkMinCongestionGrid100(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 3))
	g := gen.Grid(10, 10)
	d := demand.Gravity(g, 60, 600, rng)
	cand := benchCandidates(b, g, d, rng)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := MinCongestionOnPathsCtx(context.Background(), g, cand, d, nil); err != nil {
				b.Fatal(err)
			}
		}
	})

	background, err := MinCongestionOnPathsCtx(context.Background(), g, cand, d, nil)
	if err != nil {
		b.Fatal(err)
	}
	d4 := demand.New()
	for _, p := range d.Support()[:4] {
		d4.Set(p.U, p.V, d.Get(p.U, p.V))
		delete(background, p)
	}
	base := background.EdgeLoads(g)
	for id := range base {
		base[id] /= g.Edge(id).Capacity
	}
	b.Run("base4", func(b *testing.B) {
		opt := &Options{BaseLoads: base}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := MinCongestionOnPathsCtx(context.Background(), g, cand, d4, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkApproxOpt(b *testing.B) {
	rng := rand.New(rand.NewPCG(4, 4))
	g := gen.RandomRegular(64, 4, rng)
	d := demand.RandomPermutation(64, 16, rng)
	opt := &Options{Iterations: 128}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ApproxOptCongestionCtx(context.Background(), g, d, opt); err != nil {
			b.Fatal(err)
		}
	}
}
