package core

import (
	"math/rand/v2"
	"slices"
	"testing"

	"sparseroute/internal/demand"
	"sparseroute/internal/graph"
	"sparseroute/internal/graph/gen"
)

// uniqueByKey is the dedupe PathSystem.Unique used to do: first occurrence
// per graph.Path.Key. Kept as the specification Unique is tested against.
func uniqueByKey(paths []graph.Path) []graph.Path {
	seen := make(map[string]bool)
	var out []graph.Path
	for _, p := range paths {
		k := p.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, p)
		}
	}
	return out
}

// TestSameRouteMatchesKey: sameRoute is Key equality, on every pair of edge
// sequences up to length 4 over a 3-letter alphabet — palindromes, repeats
// and sequences that differ only in the middle included.
func TestSameRouteMatchesKey(t *testing.T) {
	var seqs [][]int
	var extend func(prefix []int)
	extend = func(prefix []int) {
		seqs = append(seqs, append([]int(nil), prefix...))
		if len(prefix) == 4 {
			return
		}
		for id := 0; id < 3; id++ {
			extend(append(prefix, id))
		}
	}
	extend(nil)
	for _, a := range seqs {
		for _, b := range seqs {
			want := graph.Path{EdgeIDs: a}.Key() == graph.Path{EdgeIDs: b}.Key()
			if got := sameRoute(a, b); got != want {
				t.Fatalf("sameRoute(%v, %v) = %v, Key equality says %v", a, b, got, want)
			}
		}
	}
}

// TestUniqueMatchesKeyDedupe: on random path systems whose samples repeat
// and come back reversed, Unique returns what the Key-map dedupe returned,
// element for element — same paths (the stored values, not copies), same
// first-occurrence order, nil for a pair without samples.
func TestUniqueMatchesKeyDedupe(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 7))
	for _, g := range []*graph.Graph{gen.Grid(5, 5), gen.RandomRegular(24, 3, rng), gen.Ring(7)} {
		ps := NewPathSystem(g)
		n := g.NumVertices()
		lengths := make([]float64, g.NumEdges())
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.IntN(4) == 0 {
					continue // some pairs stay unsampled
				}
				var drawn []graph.Path
				for k := 1 + rng.IntN(8); k > 0; k-- {
					var p graph.Path
					if len(drawn) > 0 && rng.IntN(3) == 0 {
						p = drawn[rng.IntN(len(drawn))] // repeat an earlier sample
					} else {
						for id := range lengths {
							lengths[id] = 1 + rng.Float64()
						}
						var err error
						if p, err = g.LightestPath(u, v, lengths); err != nil {
							t.Fatal(err)
						}
					}
					if rng.IntN(2) == 0 {
						p = p.Reverse()
					}
					drawn = append(drawn, p)
					if err := ps.AddPath(p); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		shrunk := 0
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				sampled := ps.Paths(u, v)
				want := uniqueByKey(sampled)
				got := ps.Unique(v, u) // endpoint order must not matter
				if (got == nil) != (want == nil) || len(got) != len(want) {
					t.Fatalf("%v pair (%d,%d): Unique has %d paths, Key dedupe %d", g, u, v, len(got), len(want))
				}
				for i := range got {
					if got[i].Src != want[i].Src || got[i].Dst != want[i].Dst || &got[i].EdgeIDs[0] != &want[i].EdgeIDs[0] {
						t.Fatalf("%v pair (%d,%d) candidate %d: Unique %+v, Key dedupe %+v", g, u, v, i, got[i], want[i])
					}
				}
				if len(got) < len(sampled) {
					shrunk++
				}
			}
		}
		if shrunk == 0 {
			t.Fatalf("%v: no pair had a duplicate sample; the test drew nothing to dedupe", g)
		}
		all := ps.UniqueAll()
		if len(all) != len(ps.Pairs()) {
			t.Fatalf("%v: UniqueAll has %d pairs, system %d", g, len(all), len(ps.Pairs()))
		}
		for pair, got := range all {
			if want := uniqueByKey(ps.Paths(pair.U, pair.V)); len(got) != len(want) {
				t.Fatalf("%v: UniqueAll[%v] has %d paths, Key dedupe %d", g, pair, len(got), len(want))
			}
		}
	}
}

// TestPairsSorted pins the (U, V) order of Pairs, ties on U included.
func TestPairsSorted(t *testing.T) {
	g := gen.Complete(6)
	ps := NewPathSystem(g)
	for _, uv := range [][2]int{{4, 5}, {0, 3}, {2, 1}, {0, 1}, {3, 1}, {5, 0}} {
		p, err := g.ShortestPathHops(uv[0], uv[1])
		if err != nil {
			t.Fatal(err)
		}
		if err := ps.AddPath(p); err != nil {
			t.Fatal(err)
		}
	}
	want := []demand.Pair{{U: 0, V: 1}, {U: 0, V: 3}, {U: 0, V: 5}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 4, V: 5}}
	if got := ps.Pairs(); !slices.Equal(got, want) {
		t.Fatalf("Pairs() = %v, want %v", got, want)
	}
}
