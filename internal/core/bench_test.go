package core

import (
	"context"
	"math/rand/v2"
	"testing"

	"sparseroute/internal/demand"
	"sparseroute/internal/graph/gen"
	"sparseroute/internal/oblivious"
)

func BenchmarkRSampleParallel(b *testing.B) {
	g := gen.Hypercube(6)
	router, err := oblivious.NewValiant(g, 6)
	if err != nil {
		b.Fatal(err)
	}
	pairs := AllPairs(g.NumVertices())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RSample(router, pairs, 4, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdaptPermutation(b *testing.B) {
	g := gen.Hypercube(6)
	router, err := oblivious.NewValiant(g, 6)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 5))
	d := demand.RandomPermutation(64, 16, rng)
	ps, err := RSample(router, d.Support(), 4, 9)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ps.Adapt(d, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdaptIntegral(b *testing.B) {
	g := gen.Hypercube(5)
	router, err := oblivious.NewValiant(g, 5)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(6, 6))
	d := demand.RandomPermutation(32, 8, rng)
	ps, err := RSample(router, d.Support(), 4, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ps.AdaptIntegral(d, nil, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdaptGrid100 is one cold epoch at the size the bench harness
// serves (bench/ workload grid100-dense): a Räcke R=4 system over all pairs
// of grid-10x10 adapting to a 600-pair gravity matrix — candidate assembly
// plus the MWU solve.
func BenchmarkAdaptGrid100(b *testing.B) {
	g := gen.Grid(10, 10)
	router, err := oblivious.Build("raecke", g, &oblivious.BuildOptions{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	ps, err := RSample(router, AllPairs(g.NumVertices()), 4, 7)
	if err != nil {
		b.Fatal(err)
	}
	d := demand.Gravity(g, 60, 600, rand.New(rand.NewPCG(3, 3)))
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ps.AdaptCtx(ctx, d, nil); err != nil {
			b.Fatal(err)
		}
	}
}
