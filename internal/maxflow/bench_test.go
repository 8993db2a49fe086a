package maxflow

import (
	"math/rand/v2"
	"testing"

	"sparseroute/internal/graph/gen"
)

func BenchmarkDinicExpander(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	g := gen.RandomRegular(256, 6, rng)
	nw := newNetwork(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := i % g.NumVertices()
		t := (i*17 + 3) % g.NumVertices()
		if s == t {
			t = (t + 1) % g.NumVertices()
		}
		nw.maxFlow(s, t)
	}
}

func BenchmarkDinicWAN(b *testing.B) {
	rng := rand.New(rand.NewPCG(2, 2))
	g := gen.SyntheticWAN(128, 200, rng)
	var pairs [][2]int
	for i := 0; i < 16; i++ {
		u, v := rng.IntN(128), rng.IntN(128)
		if u != v {
			pairs = append(pairs, [2]int{u, v})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw := newNetwork(g)
		for _, p := range pairs {
			nw.maxFlow(p[0], p[1])
		}
	}
}
