package schedule

import (
	"math/rand/v2"
	"testing"

	"sparseroute/internal/core"
	"sparseroute/internal/demand"
	"sparseroute/internal/graph/gen"
	"sparseroute/internal/oblivious"
)

func BenchmarkSimulateHypercube(b *testing.B) {
	dim := 6
	g := gen.Hypercube(dim)
	router, err := oblivious.NewValiant(g, dim)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	d := demand.RandomPermutation(1<<dim, 24, rng)
	ps, err := core.RSample(router, d.Support(), 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	routing, err := ps.AdaptIntegral(d, nil, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simulate(g, routing, 3, rng); err != nil {
			b.Fatal(err)
		}
	}
}
