package core

import (
	"slices"
	"testing"

	"sparseroute/internal/demand"
	"sparseroute/internal/graph"
	"sparseroute/internal/graph/gen"
	"sparseroute/internal/oblivious"
)

// TestDerivedSystemsNeverAlias: a derived system shares its source's per-pair
// storage, yet AddPath, Merge or Retain on either side never shows through to
// the other. The derived side moves first in every step, so that a shared
// slice with spare capacity would let the source's appends overwrite what it
// added.
func TestDerivedSystemsNeverAlias(t *testing.T) {
	g := gen.Hypercube(3)
	router, err := oblivious.Build("valiant", g, nil)
	if err != nil {
		t.Fatal(err)
	}
	pairs := AllPairs(g.NumVertices())
	sample := func(R int, seed uint64) *PathSystem {
		t.Helper()
		ps, err := RSample(router, pairs, R, seed)
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}
	extra := sample(2, 99)
	// Each step mutates a system; salt varies what it adds and narrows.
	steps := []func(ps *PathSystem, salt int){
		func(ps *PathSystem, salt int) {
			for i, p := range pairs {
				if err := ps.AddPath(extra.Paths(p.U, p.V)[(i+salt)%2]); err != nil {
					t.Fatal(err)
				}
			}
		},
		func(ps *PathSystem, salt int) {
			x, err := extra.Rebind(ps.Graph())
			if err != nil {
				t.Fatal(err)
			}
			if err := ps.Merge(x); err != nil {
				t.Fatal(err)
			}
		},
		func(ps *PathSystem, salt int) {
			ps.Retain(pairs[salt], func(i int) bool { return i%2 == 1 })
			ps.Retain(pairs[salt+1], func(i int) bool { return i < 2 })
		},
	}

	derivations := map[string]func(*PathSystem) *PathSystem{
		"Clone":              (*PathSystem).Clone,
		"WithoutEdges":       func(ps *PathSystem) *PathSystem { return ps.WithoutEdges(map[int]bool{0: true, 5: true}) },
		"WithoutEdges(none)": func(ps *PathSystem) *PathSystem { return ps.WithoutEdges(nil) },
		"Rebind": func(ps *PathSystem) *PathSystem {
			rb, err := ps.Rebind(g.Clone())
			if err != nil {
				t.Fatal(err)
			}
			return rb
		},
		"Retain": func(ps *PathSystem) *PathSystem {
			c := ps.Clone()
			c.Retain(pairs[0], func(i int) bool { return i < 2 })
			c.Retain(pairs[1], func(i int) bool { return i != 0 })
			return c
		},
	}
	for name, derive := range derivations {
		t.Run(name, func(t *testing.T) {
			src := sample(3, 7)
			d := derive(src)
			srcModel, dModel := deepCopy(src), deepCopy(d)

			// After each step on each side, both systems still match their
			// independent models.
			for i, step := range steps {
				step(d, 0)
				step(dModel, 0)
				step(src, 1)
				step(srcModel, 1)
				if !sameSystem(src, srcModel) {
					t.Fatalf("step %d: the source no longer matches its model", i)
				}
				if !sameSystem(d, dModel) {
					t.Fatalf("step %d: the derived system no longer matches its model", i)
				}
			}
		})
	}
}

// TestRetainAsksEachIndexOnceInOrder: callers may keep state in keep (a
// running dedup set), so Retain must ask about every index exactly once, in
// order, and keep exactly the accepted ones.
func TestRetainAsksEachIndexOnceInOrder(t *testing.T) {
	g := gen.Hypercube(3)
	router, err := oblivious.Build("valiant", g, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := RSample(router, AllPairs(g.NumVertices()), 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := demand.Pair{U: 0, V: 7}
	all := slices.Clone(ps.Paths(p.U, p.V))
	for _, accept := range []func(int) bool{
		func(int) bool { return true },
		func(i int) bool { return i < 3 },
		func(i int) bool { return i != 1 },
		func(i int) bool { return i%2 == 0 },
	} {
		c := ps.Clone()
		var asked []int
		c.Retain(p, func(i int) bool { asked = append(asked, i); return accept(i) })
		var want []graph.Path
		for i, path := range all {
			if accept(i) {
				want = append(want, path)
			}
		}
		if !slices.Equal(asked, []int{0, 1, 2, 3, 4}) {
			t.Fatalf("Retain asked %v, want each index once in order", asked)
		}
		got := c.Paths(p.U, p.V)
		if len(got) != len(want) {
			t.Fatalf("kept %d paths, want %d", len(got), len(want))
		}
		for i := range want {
			if !slices.Equal(got[i].EdgeIDs, want[i].EdgeIDs) {
				t.Fatalf("kept path %d is %v, want %v", i, got[i].EdgeIDs, want[i].EdgeIDs)
			}
		}
	}
	c := ps.Clone()
	c.Retain(p, func(int) bool { return false })
	if c.NumSampled(p) != 0 || slices.Contains(c.Pairs(), p) {
		t.Fatal("retaining nothing must drop the pair")
	}
}

// deepCopy copies ps into storage of its own.
func deepCopy(ps *PathSystem) *PathSystem {
	out := &PathSystem{g: ps.g, paths: make(map[demand.Pair][]graph.Path, len(ps.paths))}
	for pair, paths := range ps.paths {
		cp := make([]graph.Path, len(paths))
		for i, p := range paths {
			cp[i] = graph.Path{Src: p.Src, Dst: p.Dst, EdgeIDs: slices.Clone(p.EdgeIDs)}
		}
		out.paths[pair] = cp
	}
	return out
}

// sameSystem reports whether a and b hold the same paths pair by pair, in
// order.
func sameSystem(a, b *PathSystem) bool {
	if len(a.paths) != len(b.paths) {
		return false
	}
	for pair, pa := range a.paths {
		pb := b.paths[pair]
		if len(pa) != len(pb) {
			return false
		}
		for i := range pa {
			if pa[i].Src != pb[i].Src || pa[i].Dst != pb[i].Dst || !slices.Equal(pa[i].EdgeIDs, pb[i].EdgeIDs) {
				return false
			}
		}
	}
	return true
}
