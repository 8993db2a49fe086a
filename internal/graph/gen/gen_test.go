package gen

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestHypercube(t *testing.T) {
	for d := 1; d <= 6; d++ {
		g := Hypercube(d)
		n := 1 << d
		if g.NumVertices() != n {
			t.Fatalf("d=%d: n=%d, want %d", d, g.NumVertices(), n)
		}
		if g.NumEdges() != d*n/2 {
			t.Fatalf("d=%d: m=%d, want %d", d, g.NumEdges(), d*n/2)
		}
		for v := 0; v < n; v++ {
			if g.Degree(v) != d {
				t.Fatalf("d=%d: degree(%d)=%d, want %d", d, v, g.Degree(v), d)
			}
		}
		if !g.Connected() {
			t.Fatalf("d=%d: hypercube not connected", d)
		}
	}
}

func TestHypercubeEdgesDifferInOneBit(t *testing.T) {
	g := Hypercube(4)
	for _, e := range g.Edges() {
		x := e.U ^ e.V
		if x == 0 || x&(x-1) != 0 {
			t.Fatalf("edge (%d,%d) differs in more than one bit", e.U, e.V)
		}
	}
}

func TestGridAndTorus(t *testing.T) {
	g := Grid(3, 4)
	if g.NumVertices() != 12 {
		t.Fatalf("grid n=%d", g.NumVertices())
	}
	if g.NumEdges() != 3*3+2*4 { // horizontal + vertical
		t.Fatalf("grid m=%d, want 17", g.NumEdges())
	}
	if !g.Connected() {
		t.Fatal("grid not connected")
	}
	tor := Torus(3, 4)
	if tor.NumEdges() != g.NumEdges()+3+4 {
		t.Fatalf("torus m=%d", tor.NumEdges())
	}
	for v := 0; v < tor.NumVertices(); v++ {
		if tor.Degree(v) != 4 {
			t.Fatalf("torus degree(%d)=%d, want 4", v, tor.Degree(v))
		}
	}
}

func TestRingStarComplete(t *testing.T) {
	r := Ring(5)
	if r.NumEdges() != 5 || !r.Connected() {
		t.Fatalf("ring: m=%d connected=%v", r.NumEdges(), r.Connected())
	}
	k := Complete(5)
	if k.NumEdges() != 10 {
		t.Fatalf("K5 m=%d", k.NumEdges())
	}
}

func TestRandomRegular(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 0))
	g := RandomRegular(50, 4, rng)
	if !g.Connected() {
		t.Fatal("random regular graph not connected")
	}
	for v := 0; v < 50; v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("degree(%d)=%d, want 4", v, g.Degree(v))
		}
	}
	// No parallel edges.
	seen := map[[2]int]bool{}
	for _, e := range g.Edges() {
		a, b := e.U, e.V
		if a > b {
			a, b = b, a
		}
		if seen[[2]int{a, b}] {
			t.Fatalf("parallel edge (%d,%d)", a, b)
		}
		seen[[2]int{a, b}] = true
	}
}

func TestRandomRegularRejectsOddProduct(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for odd n*deg")
		}
	}()
	RandomRegular(5, 3, rand.New(rand.NewPCG(1, 1)))
}

func TestErdosRenyi(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	g := ErdosRenyi(40, 0.2, rng)
	if !g.Connected() {
		t.Fatal("G(n,p) generator returned disconnected graph")
	}
	if g.NumVertices() != 40 {
		t.Fatalf("n=%d", g.NumVertices())
	}
}

func TestTwoCliques(t *testing.T) {
	g := TwoCliques(5, 2)
	if g.NumVertices() != 10 {
		t.Fatalf("n=%d", g.NumVertices())
	}
	wantM := 2*10 + 2 // two K5s + 2 bridges
	if g.NumEdges() != wantM {
		t.Fatalf("m=%d, want %d", g.NumEdges(), wantM)
	}
	if !g.Connected() {
		t.Fatal("not connected")
	}
	// Removing bridges disconnects: check there are exactly 2 cross edges.
	cross := 0
	for _, e := range g.Edges() {
		if (e.U < 5) != (e.V < 5) {
			cross++
		}
	}
	if cross != 2 {
		t.Fatalf("cross edges=%d, want 2", cross)
	}
}

func TestDoubleStarStructure(t *testing.T) {
	ds := NewDoubleStar(3, 7)
	g := ds.G
	if g.NumVertices() != 2+3+14 {
		t.Fatalf("n=%d", g.NumVertices())
	}
	if len(ds.Middle) != 3 || len(ds.LeftLeaves) != 7 || len(ds.RightLeaves) != 7 {
		t.Fatal("component sizes wrong")
	}
	// Every middle vertex adjacent to both centers.
	for _, m := range ds.Middle {
		if g.FindEdge(ds.LeftCenter, m) < 0 || g.FindEdge(m, ds.RightCenter) < 0 {
			t.Fatalf("middle vertex %d not adjacent to both centers", m)
		}
	}
	// Leaves have degree 1.
	for _, l := range append(append([]int{}, ds.LeftLeaves...), ds.RightLeaves...) {
		if g.Degree(l) != 1 {
			t.Fatalf("leaf %d degree %d", l, g.Degree(l))
		}
	}
	if !g.Connected() {
		t.Fatal("B_{k,p} not connected")
	}
	// Min cut between a left leaf and a right leaf must pass through the
	// k middle vertices: every left-right path crosses them.
	p, err := g.ShortestPathHops(ds.LeftLeaves[0], ds.RightLeaves[0])
	if err != nil {
		t.Fatal(err)
	}
	if p.Hops() != 4 { // leaf-center-middle-center-leaf
		t.Fatalf("leaf-to-leaf hops=%d, want 4", p.Hops())
	}
}

func TestGluedLowerBound(t *testing.T) {
	g, gadgets := GluedLowerBound(3, 4)
	if len(gadgets) != 3 {
		t.Fatalf("gadgets=%d", len(gadgets))
	}
	if !g.Connected() {
		t.Fatal("glued graph not connected")
	}
	wantN := 0
	for k := 1; k <= 3; k++ {
		wantN += 2 + k + 8
	}
	if g.NumVertices() != wantN {
		t.Fatalf("n=%d, want %d", g.NumVertices(), wantN)
	}
	// Gadget k has k middle vertices.
	for i, ds := range gadgets {
		if len(ds.Middle) != i+1 {
			t.Fatalf("gadget %d middle=%d", i, len(ds.Middle))
		}
		for _, m := range ds.Middle {
			if g.FindEdge(ds.LeftCenter, m) < 0 {
				t.Fatalf("gadget %d: middle %d not wired", i, m)
			}
		}
	}
}

func TestFatTree(t *testing.T) {
	g, edges := FatTree(4)
	if len(edges) != 8 {
		t.Fatalf("edge switches=%d, want 8", len(edges))
	}
	if !g.Connected() {
		t.Fatal("fat-tree not connected")
	}
	// k=4: 8 edge, 8 agg, 4 core = 20 switches.
	if g.NumVertices() != 20 {
		t.Fatalf("n=%d, want 20", g.NumVertices())
	}
}

func TestSyntheticWANProperties(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
		g := SyntheticWAN(30, 20, rng)
		return g.Connected() && g.NumVertices() == 30 && g.NumEdges() >= 29
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorPanics(t *testing.T) {
	cases := []func(){
		func() { Hypercube(0) },
		func() { Grid(0, 3) },
		func() { Torus(2, 5) },
		func() { Ring(2) },
		func() { TwoCliques(3, 4) },
		func() { NewDoubleStar(0, 5) },
		func() { GluedLowerBound(0, 3) },
		func() { FatTree(3) },
		func() { SyntheticWAN(1, 0, rand.New(rand.NewPCG(1, 1))) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}
