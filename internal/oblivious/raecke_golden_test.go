package oblivious

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"testing"

	"sparseroute/internal/graph"
	"sparseroute/internal/graph/gen"
)

// TestRaeckeBuildGolden pins the Räcke router the daemon builds, bit for
// bit, on the bench's two topologies: the 64-node WAN (topology seed 64) and
// grid-10x10, both at Build("raecke", …, Seed 7), plus BuildOnSurvivors on
// the WAN with non-bridge edge 20 failed (the survivor router a link event
// resamples from). The digest covers every tree's Parent/Center/Level/
// Members, every charged tree edge's mapped parent path, the mixture weights'
// float bits, and Distribution over a fixed set of pairs — so a change to
// Dijkstra's tie order, the FRT partition order or any float summation order
// moves it. The values were recorded before graph.Dijkstra dropped
// container/heap, before frt.Build dropped its per-node maps, and before
// each tree's center paths came from Build's one shortest-path pass.
func TestRaeckeBuildGolden(t *testing.T) {
	wan := gen.SyntheticWAN(64, 40, rand.New(rand.NewPCG(64, 64)))
	grid := gen.Grid(10, 10)
	opt := &BuildOptions{Seed: 7}
	for _, tc := range []struct {
		name   string
		build  func() (Router, error)
		digest uint64
	}{
		{"wan64", func() (Router, error) { return Build("raecke", wan, opt) }, 0x38703abe79d294a1},
		{"grid100", func() (Router, error) { return Build("raecke", grid, opt) }, 0xf23463eb04d4e3b6},
		{"wan64-fail20", func() (Router, error) {
			return BuildOnSurvivors("raecke", wan, map[int]bool{20: true}, opt)
		}, 0x0c98edd95c837b84},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			if got := raeckeDigest(t, r); got != tc.digest {
				t.Errorf("digest %#016x, want %#016x", got, tc.digest)
			}
		})
	}
}

// raeckeDigest hashes the tree mixture behind r (unwrapping a survivor
// router) and r's own Distribution over a fixed pair set.
func raeckeDigest(t *testing.T, r Router) uint64 {
	t.Helper()
	h := fnv.New64a()
	put := func(xs ...int) {
		for _, x := range xs {
			binary.Write(h, binary.LittleEndian, int64(x))
		}
	}
	putPath := func(p graph.Path) {
		put(p.Src, p.Dst, len(p.EdgeIDs))
		put(p.EdgeIDs...)
	}
	inner := r
	if s, ok := r.(*survivorRouter); ok {
		inner = s.inner
	}
	rk, ok := inner.(*Raecke)
	if !ok {
		t.Fatalf("router is %T, want *Raecke", inner)
	}
	for _, tree := range rk.trees {
		put(len(tree.Nodes))
		boundary := tree.BoundaryCapacities()
		for idx, nd := range tree.Nodes {
			put(nd.Parent, nd.Center, nd.Level, len(nd.Members))
			put(nd.Members...)
			// Only charged tree edges: NewRaecke computed exactly these
			// paths under the tree's own lengths.
			if nd.Parent < 0 || boundary[idx] == 0 {
				continue
			}
			p, err := tree.ParentPath(idx)
			if err != nil {
				t.Fatal(err)
			}
			putPath(p)
		}
	}
	for _, w := range rk.weights {
		binary.Write(h, binary.LittleEndian, math.Float64bits(w))
	}
	n := r.Graph().NumVertices()
	for u := 0; u < n; u += 3 {
		v := (u*7 + 5) % n
		if u == v {
			continue
		}
		dist, err := r.Distribution(u, v)
		if err != nil {
			t.Fatal(err)
		}
		put(len(dist))
		for _, wp := range dist {
			putPath(wp.Path)
			binary.Write(h, binary.LittleEndian, math.Float64bits(wp.Weight))
		}
	}
	return h.Sum64()
}
