package oblivious

import (
	"math"
	"math/rand/v2"
	"testing"

	"sparseroute/internal/demand"
	"sparseroute/internal/graph/gen"
)

func TestNewMeshValidation(t *testing.T) {
	g := gen.Grid(3, 4)
	if _, err := NewMesh(g, 3, 4, XY); err != nil {
		t.Fatal(err)
	}
	if _, err := NewMesh(g, 4, 3, XY); err == nil {
		t.Fatal("transposed dimensions should be rejected (edge pattern differs)")
	}
	if _, err := NewMesh(gen.Ring(12), 3, 4, XY); err == nil {
		t.Fatal("ring should be rejected")
	}
	if _, err := NewMesh(g, 3, 4, MeshMode(99)); err == nil {
		t.Fatal("unknown mode should be rejected")
	}
}

func TestMeshXYDeterministicMinimal(t *testing.T) {
	g := gen.Grid(4, 4)
	m, err := NewMesh(g, 4, 4, XY)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	checkRouterBasics(t, m, [][2]int{{0, 15}, {3, 12}, {1, 2}}, rng)
	p, _ := m.Sample(0, 15, rng)
	if p.Hops() != 6 {
		t.Fatalf("XY path should be minimal: %d hops", p.Hops())
	}
	q, _ := m.Sample(0, 15, rng)
	if p.Key() != q.Key() {
		t.Fatal("XY should be deterministic")
	}
	// XY from corner (0,0) to (3,3): first move along the row (columns).
	vs, _ := p.Vertices(g)
	if vs[1] != 1 {
		t.Fatalf("XY should move along columns first, second vertex %d", vs[1])
	}
}

func TestMeshO1TurnTwoPaths(t *testing.T) {
	g := gen.Grid(4, 4)
	m, err := NewMesh(g, 4, 4, O1Turn)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(2, 2))
	checkRouterBasics(t, m, [][2]int{{0, 15}, {5, 6}}, rng)
	dist, err := m.Distribution(0, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(dist) != 2 {
		t.Fatalf("O1TURN support=%d, want 2", len(dist))
	}
	// Same-row pair collapses to one path.
	dist, err = m.Distribution(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(dist) != 1 {
		t.Fatalf("same-row support=%d, want 1", len(dist))
	}
}

func TestMeshROMMMinimalAndSpreading(t *testing.T) {
	g := gen.Grid(5, 5)
	m, err := NewMesh(g, 5, 5, ROMM)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 3))
	checkRouterBasics(t, m, [][2]int{{0, 24}, {4, 20}}, rng)
	// All ROMM paths are minimal (inside the bounding box).
	for trial := 0; trial < 40; trial++ {
		p, err := m.Sample(0, 24, rng)
		if err != nil {
			t.Fatal(err)
		}
		if p.Hops() != 8 {
			t.Fatalf("ROMM path not minimal: %d hops", p.Hops())
		}
	}
	dist, err := m.Distribution(0, 24)
	if err != nil {
		t.Fatal(err)
	}
	if len(dist) < 5 {
		t.Fatalf("ROMM support=%d, want rich diversity", len(dist))
	}
}

func TestMeshSelfPair(t *testing.T) {
	g := gen.Grid(3, 3)
	for _, mode := range []MeshMode{XY, O1Turn, ROMM} {
		m, err := NewMesh(g, 3, 3, mode)
		if err != nil {
			t.Fatal(err)
		}
		p, err := m.Sample(4, 4, rand.New(rand.NewPCG(4, 4)))
		if err != nil || p.Hops() != 0 {
			t.Fatalf("mode %d: self pair %+v err=%v", mode, p, err)
		}
	}
}

func TestMeshWorstCaseOrdering(t *testing.T) {
	// On the transpose-like permutation of a grid, XY concentrates load
	// while ROMM spreads it: cong(XY) >= cong(O1Turn) >= cong(ROMM) up to
	// noise, and all are >= OPT-scale.
	side := 5
	g := gen.Grid(side, side)
	d := demand.New()
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if r < c { // transpose pairing (r,c) <-> (c,r)
				d.Set(r*side+c, c*side+r, 1)
			}
		}
	}
	congOf := func(mode MeshMode) float64 {
		m, err := NewMesh(g, side, side, mode)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Congestion(m, d)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	xy, o1, romm := congOf(XY), congOf(O1Turn), congOf(ROMM)
	if xy < o1-1e-9 {
		t.Fatalf("XY (%v) should not beat O1TURN (%v) on the transpose", xy, o1)
	}
	if o1 < romm-1e-9 {
		t.Fatalf("O1TURN (%v) should not beat ROMM (%v) on the transpose", o1, romm)
	}
	if math.IsNaN(xy + o1 + romm) {
		t.Fatal("NaN congestion")
	}
}
