package graph

import (
	"math/rand/v2"
	"testing"
)

func benchGraph(n int) (*Graph, []float64) {
	rng := rand.New(rand.NewPCG(1, 1))
	g := New(n)
	for i := 1; i < n; i++ {
		g.AddUnitEdge(i, rng.IntN(i))
	}
	for extra := 0; extra < 3*n; extra++ {
		u, v := rng.IntN(n), rng.IntN(n)
		if u != v {
			g.AddUnitEdge(u, v)
		}
	}
	lengths := make([]float64, g.NumEdges())
	for i := range lengths {
		lengths[i] = 0.1 + rng.Float64()
	}
	return g, lengths
}

func BenchmarkBFS(b *testing.B) {
	g, _ := benchGraph(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFS(i % g.NumVertices())
	}
}

func BenchmarkDijkstra(b *testing.B) {
	g, lengths := benchGraph(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Dijkstra(i%g.NumVertices(), lengths)
	}
}

func BenchmarkHopBoundedLightestPath(b *testing.B) {
	g, lengths := benchGraph(128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := i % g.NumVertices()
		dst := (i*7 + 1) % g.NumVertices()
		if src == dst {
			dst = (dst + 1) % g.NumVertices()
		}
		if _, err := g.hopBoundedLightestPath(src, dst, 12, lengths); err != nil && err != ErrNoPath {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimplify(b *testing.B) {
	g, _ := benchGraph(128)
	rng := rand.New(rand.NewPCG(2, 2))
	walk := randomWalk(g, 0, 60, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simplify(g, walk); err != nil {
			b.Fatal(err)
		}
	}
}
