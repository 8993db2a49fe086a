package graph

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func unitLengths(g *Graph) []float64 {
	l := make([]float64, g.NumEdges())
	for i := range l {
		l[i] = 1
	}
	return l
}

func TestBFSDistancesOnLine(t *testing.T) {
	g := line(t, 5)
	dist, parent := g.BFS(0)
	for v := 0; v < 5; v++ {
		if dist[v] != v {
			t.Fatalf("dist[%d]=%d, want %d", v, dist[v], v)
		}
	}
	if parent[0] != -1 {
		t.Fatalf("source parent should be -1, got %d", parent[0])
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(3)
	g.AddUnitEdge(0, 1)
	dist, _ := g.BFS(0)
	if dist[2] != -1 {
		t.Fatalf("unreachable vertex distance = %d, want -1", dist[2])
	}
}

func TestShortestPathHops(t *testing.T) {
	g := New(4)
	g.AddUnitEdge(0, 1)
	g.AddUnitEdge(1, 2)
	g.AddUnitEdge(2, 3)
	g.AddUnitEdge(0, 3)
	p, err := g.ShortestPathHops(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Hops() != 1 {
		t.Fatalf("hops=%d, want 1 (direct edge)", p.Hops())
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestShortestPathNoPath(t *testing.T) {
	g := New(3)
	g.AddUnitEdge(0, 1)
	if _, err := g.ShortestPathHops(0, 2); err != ErrNoPath {
		t.Fatalf("want ErrNoPath, got %v", err)
	}
}

func TestDijkstraPrefersLightPath(t *testing.T) {
	// Triangle: direct edge 0-2 heavy, detour through 1 light.
	g := New(3)
	e01 := g.AddUnitEdge(0, 1)
	e12 := g.AddUnitEdge(1, 2)
	e02 := g.AddUnitEdge(0, 2)
	length := make([]float64, 3)
	length[e01] = 1
	length[e12] = 1
	length[e02] = 10
	p, err := g.LightestPath(0, 2, length)
	if err != nil {
		t.Fatal(err)
	}
	if p.Hops() != 2 {
		t.Fatalf("expected the 2-hop detour, got %d hops", p.Hops())
	}
	dist, _ := g.Dijkstra(0, length)
	if dist[2] != 2 {
		t.Fatalf("dist[2]=%v, want 2", dist[2])
	}
}

func TestDijkstraUnreachableIsInf(t *testing.T) {
	g := New(2)
	dist, _ := g.Dijkstra(0, nil)
	if !math.IsInf(dist[1], 1) {
		t.Fatalf("unreachable distance = %v, want +Inf", dist[1])
	}
}

func TestDijkstraMatchesBFSOnUnitLengths(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	g := New(30)
	for i := 1; i < 30; i++ {
		g.AddUnitEdge(i, rng.IntN(i))
	}
	for extra := 0; extra < 30; extra++ {
		u, v := rng.IntN(30), rng.IntN(30)
		if u != v {
			g.AddUnitEdge(u, v)
		}
	}
	bfsDist, _ := g.BFS(0)
	dDist, _ := g.Dijkstra(0, unitLengths(g))
	for v := range bfsDist {
		if float64(bfsDist[v]) != dDist[v] {
			t.Fatalf("vertex %d: BFS %d vs Dijkstra %v", v, bfsDist[v], dDist[v])
		}
	}
}

func TestHopBoundedLightestPath(t *testing.T) {
	// Light but long route vs heavy direct edge: the hop bound forces the
	// heavy edge when tight.
	g := New(5)
	ids := []int{
		g.AddUnitEdge(0, 1),
		g.AddUnitEdge(1, 2),
		g.AddUnitEdge(2, 3),
		g.AddUnitEdge(3, 4),
		g.AddUnitEdge(0, 4),
	}
	length := make([]float64, len(ids))
	for _, id := range ids[:4] {
		length[id] = 1
	}
	length[ids[4]] = 100

	loose, err := g.hopBoundedLightestPath(0, 4, 10, length)
	if err != nil {
		t.Fatal(err)
	}
	if loose.Hops() != 4 {
		t.Fatalf("loose bound should take light path, hops=%d", loose.Hops())
	}
	tight, err := g.hopBoundedLightestPath(0, 4, 1, length)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Hops() != 1 {
		t.Fatalf("tight bound should take direct edge, hops=%d", tight.Hops())
	}
	if _, err := g.hopBoundedLightestPath(0, 4, 0, length); err != ErrNoPath {
		t.Fatalf("0-hop budget to a distinct vertex should fail, got %v", err)
	}
	self, err := g.hopBoundedLightestPath(2, 2, 0, length)
	if err != nil || self.Hops() != 0 {
		t.Fatalf("self path: %v %v", self, err)
	}
}

func TestHopBoundedMatchesDijkstraWhenLoose(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	g := New(20)
	for i := 1; i < 20; i++ {
		g.AddUnitEdge(i, rng.IntN(i))
	}
	for extra := 0; extra < 25; extra++ {
		u, v := rng.IntN(20), rng.IntN(20)
		if u != v {
			g.AddUnitEdge(u, v)
		}
	}
	length := make([]float64, g.NumEdges())
	for i := range length {
		length[i] = 0.1 + rng.Float64()
	}
	for trial := 0; trial < 20; trial++ {
		s, d := rng.IntN(20), rng.IntN(20)
		dd, _ := g.Dijkstra(s, length)
		p, err := g.hopBoundedLightestPath(s, d, g.NumVertices(), length)
		if err != nil {
			t.Fatal(err)
		}
		var got float64
		for _, id := range p.EdgeIDs {
			got += length[id]
		}
		if math.Abs(got-dd[d]) > 1e-9 {
			t.Fatalf("pair (%d,%d): hop-bounded weight %v vs dijkstra %v", s, d, got, dd[d])
		}
	}
}

func TestHopBoundedRespectsBudgetProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	g := New(16)
	for i := 1; i < 16; i++ {
		g.AddUnitEdge(i, rng.IntN(i))
	}
	for extra := 0; extra < 16; extra++ {
		u, v := rng.IntN(16), rng.IntN(16)
		if u != v {
			g.AddUnitEdge(u, v)
		}
	}
	length := make([]float64, g.NumEdges())
	for i := range length {
		length[i] = rng.Float64()
	}
	f := func(srcRaw, dstRaw uint8, hopRaw uint8) bool {
		src := int(srcRaw) % 16
		dst := int(dstRaw) % 16
		hops := int(hopRaw)%10 + 1
		p, err := g.hopBoundedLightestPath(src, dst, hops, length)
		if err == ErrNoPath {
			// Must genuinely be unreachable within the budget.
			bfs, _ := g.BFS(src)
			return bfs[dst] > hops || bfs[dst] < 0
		}
		if err != nil {
			return false
		}
		return p.Hops() <= hops && p.Validate(g) == nil && p.IsSimple(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEccentricityAndDiameter(t *testing.T) {
	g := line(t, 5)
	if e := g.eccentricity(0); e != 4 {
		t.Fatalf("ecc(0)=%d, want 4", e)
	}
	if e := g.eccentricity(2); e != 2 {
		t.Fatalf("ecc(2)=%d, want 2", e)
	}
	if d := g.HopDiameter(); d != 4 {
		t.Fatalf("diameter=%d, want 4", d)
	}
}
