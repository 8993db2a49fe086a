package graph_test

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"sparseroute/internal/graph"
	"sparseroute/internal/graph/gen"
)

// TestDijkstraIntoMatchesDijkstra runs DijkstraInto from every source into
// one set of buffers reused across sources and graphs, so each call starts
// on the previous call's results, and compares every distance's float bits
// and every parent edge with Dijkstra's.
func TestDijkstraIntoMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewPCG(55, 1))
	randomLengths := func(g *graph.Graph) []float64 {
		l := make([]float64, g.NumEdges())
		for id := range l {
			l[id] = rng.Float64()
		}
		return l
	}
	disc := graph.New(9)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {4, 5}, {5, 6}, {4, 6}, {6, 7}} {
		disc.AddUnitEdge(e[0], e[1])
	}
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"wan32", gen.SyntheticWAN(32, 20, rand.New(rand.NewPCG(3, 3)))},
		{"wan64", gen.SyntheticWAN(64, 40, rand.New(rand.NewPCG(64, 64)))},
		{"wan80", gen.SyntheticWAN(80, 60, rand.New(rand.NewPCG(5, 8)))},
		{"grid-10x10", gen.Grid(10, 10)},
		{"disconnected", disc},
	}
	maxN := 0
	for _, tc := range cases {
		maxN = max(maxN, tc.g.NumVertices())
	}
	dist := make([]float64, maxN)
	parent := make([]int, maxN)
	var q graph.DistHeap
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			length := randomLengths(tc.g)
			n := tc.g.NumVertices()
			for src := 0; src < n; src++ {
				tc.g.DijkstraInto(src, length, dist, parent, &q)
				wantD, wantP := tc.g.Dijkstra(src, length)
				for v := 0; v < n; v++ {
					if math.Float64bits(dist[v]) != math.Float64bits(wantD[v]) || parent[v] != wantP[v] {
						t.Fatalf("src %d, v %d: dist %v parent %d, Dijkstra dist %v parent %d",
							src, v, dist[v], parent[v], wantD[v], wantP[v])
					}
				}
			}
		})
	}
	// The disconnected case must have exercised unreachable vertices.
	disc.DijkstraInto(0, make([]float64, disc.NumEdges()), dist, parent, &q)
	if !math.IsInf(dist[4], 1) || parent[4] != -1 || !math.IsInf(dist[8], 1) || parent[8] != -1 {
		t.Fatalf("unreachable vertices: dist %v, parent %v", dist[:9], parent[:9])
	}
}

// referenceSimplify and referenceIsSimple are graph.Simplify and
// Path.IsSimple as they stood on per-call maps.
func referenceSimplify(g *graph.Graph, p graph.Path) (graph.Path, error) {
	vs, err := p.Vertices(g)
	if err != nil {
		return graph.Path{}, err
	}
	lastIndex := make(map[int]int, len(vs))
	for i, v := range vs {
		lastIndex[v] = i
	}
	var ids []int
	i := 0
	for i < len(vs)-1 {
		if j := lastIndex[vs[i]]; j > i {
			i = j
			if i >= len(vs)-1 {
				break
			}
		}
		ids = append(ids, p.EdgeIDs[i])
		i++
	}
	return graph.Path{Src: p.Src, Dst: p.Dst, EdgeIDs: ids}, nil
}

func referenceIsSimple(g *graph.Graph, p graph.Path) bool {
	vs, err := p.Vertices(g)
	if err != nil {
		return false
	}
	seen := make(map[int]bool, len(vs))
	for _, v := range vs {
		if seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// randomWalks returns random walks on g, most of them looping back on
// themselves, some of them closed or empty, and a few broken (a wrong end
// vertex or an edge that does not continue the walk).
func randomWalks(g *graph.Graph, count int, rng *rand.Rand) []graph.Path {
	var walks []graph.Path
	for len(walks) < count {
		src := rng.IntN(g.NumVertices())
		p := graph.Path{Src: src}
		cur := src
		for k := rng.IntN(3 * g.NumVertices() / 2); k > 0; k-- {
			inc := g.Incident(cur)
			id := inc[rng.IntN(len(inc))]
			p.EdgeIDs = append(p.EdgeIDs, id)
			cur = g.Edge(id).Other(cur)
		}
		p.Dst = cur
		switch rng.IntN(10) {
		case 0:
			p.Dst = (cur + 1) % g.NumVertices()
		case 1:
			if len(p.EdgeIDs) > 0 {
				p.EdgeIDs[rng.IntN(len(p.EdgeIDs))] = rng.IntN(g.NumEdges())
			}
		}
		walks = append(walks, p)
	}
	return walks
}

// TestSimplifyAndIsSimpleMatchReference compares the slice-based Simplify
// and IsSimple with their map-based references on random walks.
func TestSimplifyAndIsSimpleMatchReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(55, 2))
	for _, g := range []*graph.Graph{
		gen.SyntheticWAN(64, 40, rand.New(rand.NewPCG(64, 64))),
		gen.Grid(6, 6),
		gen.Ring(5),
	} {
		loops, simple := 0, 0
		for _, p := range randomWalks(g, 400, rng) {
			got, gotErr := graph.Simplify(g, p)
			want, wantErr := referenceSimplify(g, p)
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("walk %+v: Simplify err %v, reference err %v", p, gotErr, wantErr)
			}
			if gotErr == nil && (got.Src != want.Src || got.Dst != want.Dst || !slices.Equal(got.EdgeIDs, want.EdgeIDs)) {
				t.Fatalf("walk %+v: Simplify %+v, reference %+v", p, got, want)
			}
			if gotErr == nil && !got.IsSimple(g) {
				t.Fatalf("walk %+v: Simplify returned a non-simple path %+v", p, got)
			}
			gs, ws := p.IsSimple(g), referenceIsSimple(g, p)
			if gs != ws {
				t.Fatalf("walk %+v: IsSimple %v, reference %v", p, gs, ws)
			}
			if gotErr == nil && len(got.EdgeIDs) < len(p.EdgeIDs) {
				loops++
			}
			if ws {
				simple++
			}
		}
		if loops == 0 || simple == 0 {
			t.Fatalf("walks on %v: %d with loops, %d simple; want both", g, loops, simple)
		}
	}
}
