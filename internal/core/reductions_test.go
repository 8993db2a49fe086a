package core

import (
	"math/rand/v2"
	"testing"

	"sparseroute/internal/demand"
	"sparseroute/internal/graph/gen"
	"sparseroute/internal/maxflow"
	"sparseroute/internal/oblivious"
)

func TestAdaptViaBucketsRoutesFully(t *testing.T) {
	g := gen.Hypercube(4)
	router, err := oblivious.NewValiant(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	// Mixed-magnitude demand: ratios spread over several powers of two.
	d := demand.New()
	perm := rng.Perm(16)
	amounts := []float64{8, 4, 1, 0.5, 0.25}
	for i, amt := range amounts {
		d.Set(perm[2*i], perm[2*i+1], amt)
	}
	ps, err := RSample(router, d.Support(), 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	r, nBuckets, err := ps.adaptViaBuckets(d, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if nBuckets < 2 {
		t.Fatalf("expected multiple buckets for spread ratios, got %d", nBuckets)
	}
	if err := r.ValidateRoutes(g, d, 1e-6); err != nil {
		t.Fatal(err)
	}
	// The reduction's overhead is bounded by the bucket count (subadditive
	// congestion, Lemma 5.15).
	direct, err := ps.Adapt(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxCongestion(g) > float64(nBuckets)*direct.MaxCongestion(g)+1e-6 {
		t.Fatalf("bucketing congestion %v exceeds %d x direct %v",
			r.MaxCongestion(g), nBuckets, direct.MaxCongestion(g))
	}
	if r.MaxCongestion(g) < direct.MaxCongestion(g)-1e-6 {
		t.Fatalf("bucketing %v cannot beat direct adaptation %v",
			r.MaxCongestion(g), direct.MaxCongestion(g))
	}
}

func TestAdaptViaBucketsNeedsCoverage(t *testing.T) {
	g := gen.Ring(6)
	ps := NewPathSystem(g)
	if _, _, err := ps.adaptViaBuckets(demand.SinglePair(0, 3, 1), nil, 0); err == nil {
		t.Fatal("uncovered demand should fail")
	}
}

func TestAuxiliaryGraphCutsAreOne(t *testing.T) {
	// The whole point of Corollary 6.2's construction: the min cut between
	// the two auxiliary vertices of every pair is exactly 1.
	g := gen.Hypercube(3)
	pairs := []demand.Pair{{U: 0, V: 7}, {U: 1, V: 6}}
	ax, err := buildAuxiliaryGraph(g, pairs)
	if err != nil {
		t.Fatal(err)
	}
	for _, ap := range ax.AuxPair {
		if l := maxflow.Lambda(ax.G, ap.U, ap.V); l != 1 {
			t.Fatalf("auxiliary cut=%v, want 1", l)
		}
	}
	// Original vertices keep their connectivity (cuts only grew).
	if l := maxflow.Lambda(ax.G, 0, 7); l < 3 {
		t.Fatalf("original cut shrank: %v", l)
	}
}

func TestAuxiliaryProjectRoundTrip(t *testing.T) {
	g := gen.Grid(3, 3)
	pairs := []demand.Pair{{U: 0, V: 8}, {U: 2, V: 6}}
	ax, err := buildAuxiliaryGraph(g, pairs)
	if err != nil {
		t.Fatal(err)
	}
	// Sample paths between auxiliary pairs on the augmented graph.
	router, err := oblivious.NewRandomDetour(ax.G)
	if err != nil {
		t.Fatal(err)
	}
	auxSys, err := RSample(router, ax.AuxPair, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := ax.projectSystem(auxSys, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := proj.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if proj.NumSampled(p) == 0 {
			t.Fatalf("pair %v lost its projected paths", p)
		}
		for _, path := range proj.Paths(p.U, p.V) {
			if path.Validate(g) != nil || !path.IsSimple(g) {
				t.Fatalf("projected path invalid for %v", p)
			}
		}
	}
	// A projected system can actually route the pairs.
	d := demand.New()
	for _, p := range pairs {
		d.Set(p.U, p.V, 1)
	}
	r, err := proj.Adapt(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ValidateRoutes(g, d, 1e-6); err != nil {
		t.Fatal(err)
	}
}

func TestProjectPathValidation(t *testing.T) {
	g := gen.Ring(5)
	ax, err := buildAuxiliaryGraph(g, []demand.Pair{{U: 0, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	// A path that does not start at an auxiliary vertex must be rejected.
	p, err := g.ShortestPathHops(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ax.projectPath(p); err == nil {
		t.Fatal("non-auxiliary endpoints should be rejected")
	}
}
