package serial

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"sparseroute/internal/core"
	"sparseroute/internal/graph/gen"
	"sparseroute/internal/oblivious"
)

// referenceHash is PathSystemHash's definition spelled out with hash/fnv:
// one little-endian integer at a time, reversed paths materialized.
func referenceHash(ps *core.PathSystem) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	writeInt := func(x int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	g := ps.Graph()
	writeInt(g.NumVertices())
	writeInt(g.NumEdges())
	for _, pr := range ps.Pairs() {
		writeInt(pr.U)
		writeInt(pr.V)
		paths := ps.Paths(pr.U, pr.V)
		writeInt(len(paths))
		for _, p := range paths {
			ids := p.EdgeIDs
			if p.Src != pr.U {
				ids = p.Reverse().EdgeIDs
			}
			writeInt(len(ids))
			for _, id := range ids {
				writeInt(id)
			}
		}
	}
	return h.Sum64()
}

// TestPathSystemHashMatchesReference: the streamed hash is the byte-for-byte
// FNV-1a digest snapshots and goldens were recorded with, including paths
// stored against their pair's orientation.
func TestPathSystemHashMatchesReference(t *testing.T) {
	g := gen.Hypercube(4)
	router, err := oblivious.NewValiant(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	pairs := core.AllPairs(g.NumVertices())
	ps, err := core.RSample(router, pairs, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range pairs {
		if i%3 == 0 {
			if err := ps.AddPath(ps.Paths(pr.U, pr.V)[0].Reverse()); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := referenceHash(ps)
	if got := PathSystemHash(ps); got != want {
		t.Fatalf("PathSystemHash %016x, reference %016x", got, want)
	}
	if got := PathSystemHashOver(ps, ps.Pairs()); got != want {
		t.Fatalf("PathSystemHashOver %016x, reference %016x", got, want)
	}
}
