package oblivious

import (
	"math/rand/v2"
	"testing"

	"sparseroute/internal/graph"
	"sparseroute/internal/graph/gen"
)

// The build rows run at the daemon's sizes: the bench WAN (64 nodes,
// topology seed 64) and grid-10x10, 12 trees, seed 7 — what the startup
// sample and every link event's survivor rebuild pay.

func BenchmarkRaeckeBuildWAN64(b *testing.B) {
	g := benchWAN()
	benchBuild(b, func() (Router, error) { return Build("raecke", g, &BuildOptions{Seed: 7}) })
}

func BenchmarkRaeckeBuildGrid100(b *testing.B) {
	g := gen.Grid(10, 10)
	benchBuild(b, func() (Router, error) { return Build("raecke", g, &BuildOptions{Seed: 7}) })
}

// BenchmarkBuildOnSurvivorsWAN64 is one link event's survivor router:
// non-bridge edge 20 failed.
func BenchmarkBuildOnSurvivorsWAN64(b *testing.B) {
	g := benchWAN()
	failed := map[int]bool{20: true}
	benchBuild(b, func() (Router, error) { return BuildOnSurvivors("raecke", g, failed, &BuildOptions{Seed: 7}) })
}

func benchWAN() *graph.Graph {
	return gen.SyntheticWAN(64, 40, rand.New(rand.NewPCG(64, 64)))
}

func benchBuild(b *testing.B, build func() (Router, error)) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := build(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRaeckeSample(b *testing.B) {
	g := gen.Grid(8, 8)
	rng := rand.New(rand.NewPCG(2, 2))
	r, err := NewRaecke(g, &RaeckeOptions{NumTrees: 8}, rng)
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumVertices()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := i % n
		v := (i*13 + 7) % n
		if u == v {
			v = (v + 1) % n
		}
		if _, err := r.Sample(u, v, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValiantSample(b *testing.B) {
	g := gen.Hypercube(8)
	r, err := NewValiant(g, 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 3))
	n := g.NumVertices()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := i % n
		v := (i*31 + 5) % n
		if u == v {
			v = (v + 1) % n
		}
		if _, err := r.Sample(u, v, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKSPPaths(b *testing.B) {
	g := gen.Grid(6, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewKSP(g, 4, nil) // fresh router: measure Yen, not the cache
		if _, err := r.Paths(0, 35); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkElectricalDistribution(b *testing.B) {
	g := gen.Grid(6, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewElectrical(g) // fresh: measure the CG solve + decomposition
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Distribution(0, 35); err != nil {
			b.Fatal(err)
		}
	}
}
