package graph_test

import (
	"container/heap"
	"math"
	"math/rand/v2"
	"testing"

	"sparseroute/internal/graph"
	"sparseroute/internal/graph/gen"
)

// refItem, refPQ and referenceDijkstra are graph.Dijkstra as it stood on
// container/heap. The typed heap that replaced it promises the same pop
// order, ties included, so every dist and parentEdge must match exactly.
type refItem struct {
	v    int
	dist float64
}

type refPQ []refItem

func (q refPQ) Len() int            { return len(q) }
func (q refPQ) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q refPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refPQ) Push(x interface{}) { *q = append(*q, x.(refItem)) }
func (q *refPQ) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

func referenceDijkstra(g *graph.Graph, src int, length []float64) (dist []float64, parentEdge []int) {
	n := g.NumVertices()
	dist = make([]float64, n)
	parentEdge = make([]int, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parentEdge[i] = -1
	}
	dist[src] = 0
	q := &refPQ{{v: src, dist: 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(refItem)
		if it.dist > dist[it.v] {
			continue
		}
		for _, id := range g.Incident(it.v) {
			w := g.Edge(id).Other(it.v)
			nd := it.dist + length[id]
			if nd < dist[w] {
				dist[w] = nd
				parentEdge[w] = id
				heap.Push(q, refItem{v: w, dist: nd})
			}
		}
	}
	return dist, parentEdge
}

// TestDijkstraMatchesReference compares graph.Dijkstra with the
// container/heap reference from every source, with ==, on inputs chosen for
// ties: unit-length grids (every shortest path has many equal-length
// rivals), the bench WAN with small integer lengths, random float lengths,
// and a graph with unreachable vertices.
func TestDijkstraMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(28, 1))
	lengths := func(g *graph.Graph, f func(id int) float64) []float64 {
		l := make([]float64, g.NumEdges())
		for id := range l {
			l[id] = f(id)
		}
		return l
	}
	unit := func(int) float64 { return 1 }
	wan := gen.SyntheticWAN(64, 40, rand.New(rand.NewPCG(64, 64)))
	grid := gen.Grid(10, 10)
	disc := graph.New(7)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {4, 5}, {5, 6}, {4, 6}} {
		disc.AddUnitEdge(e[0], e[1])
	}
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		length []float64
	}{
		{"grid-8x8-unit", gen.Grid(8, 8), lengths(gen.Grid(8, 8), unit)},
		{"grid-10x10-unit", grid, lengths(grid, unit)},
		{"torus-6x6-unit", gen.Torus(6, 6), lengths(gen.Torus(6, 6), unit)},
		{"wan64-int", wan, lengths(wan, func(int) float64 { return float64(1 + rng.IntN(3)) })},
		{"wan64-float", wan, lengths(wan, func(int) float64 { return rng.Float64() })},
		{"grid-10x10-float", grid, lengths(grid, func(int) float64 { return rng.Float64() })},
		{"disconnected", disc, lengths(disc, unit)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for src := 0; src < tc.g.NumVertices(); src++ {
				gotD, gotP := tc.g.Dijkstra(src, tc.length)
				wantD, wantP := referenceDijkstra(tc.g, src, tc.length)
				for v := range wantD {
					if gotD[v] != wantD[v] || gotP[v] != wantP[v] {
						t.Fatalf("src %d, v %d: dist %v parent %d, reference dist %v parent %d",
							src, v, gotD[v], gotP[v], wantD[v], wantP[v])
					}
				}
			}
		})
	}
}
