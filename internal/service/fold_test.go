package service

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sparseroute/internal/demand"
	"sparseroute/internal/graph/gen"
	"sparseroute/internal/oblivious"
	"sparseroute/internal/obs"
	"sparseroute/internal/serial"
	"sparseroute/internal/wal"
)

// prefixOps is a seeded mix of the records the accept paths see: submits,
// patches, fails, brownouts, restores and replace sets on an n-vertex,
// m-edge topology, plus records the accept path refuses (a patch with no
// base, a self pair, a vertex or edge outside the topology, a negative
// capacity, a patch that clears every pair).
func prefixOps(rng *rand.Rand, n, m, count int) []*walOp {
	pair := func() (int, int) {
		u := rng.IntN(n)
		return u, (u + 1 + rng.IntN(n-1)) % n
	}
	amounts := func(k int) []PairAmount {
		out := make([]PairAmount, k)
		for i := range out {
			u, v := pair()
			out[i] = PairAmount{U: u, V: v, Amount: 0.5 + float64(rng.IntN(8))/4}
		}
		return out
	}
	edges := func(k int) []int {
		out := make([]int, k)
		for i := range out {
			out[i] = rng.IntN(m)
		}
		return out
	}
	var all []PairRef
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			all = append(all, PairRef{U: u, V: v})
		}
	}
	refused := []*walOp{
		{Op: walOpSubmit, Entries: []PairAmount{{U: 3, V: 3, Amount: 1}}},
		{Op: walOpSubmit, Entries: []PairAmount{{U: 0, V: n, Amount: 1}}},
		{Op: walOpLinks, Fail: []int{m}},
		{Op: walOpLinks, Caps: []EdgeCapacity{{Edge: 1, Capacity: -0.5}}},
		{Op: walOpPatch, Clear: all},
	}
	ops := []*walOp{{Op: walOpPatch, Set: amounts(1)}} // no base yet
	for len(ops) < count {
		switch k := rng.IntN(12); {
		case k < 3:
			ops = append(ops, &walOp{Op: walOpSubmit, Entries: amounts(1 + rng.IntN(3))})
		case k < 5:
			op := &walOp{Op: walOpPatch, Set: amounts(1 + rng.IntN(2))}
			if rng.IntN(3) == 0 {
				u, v := pair()
				op.Clear = []PairRef{{U: u, V: v}}
			}
			ops = append(ops, op)
		case k < 7:
			ops = append(ops, &walOp{Op: walOpLinks, Fail: edges(1)})
		case k == 7:
			caps := []EdgeCapacity{{Edge: rng.IntN(m), Capacity: float64(1+rng.IntN(4)) / 4}}
			ops = append(ops, &walOp{Op: walOpLinks, Caps: caps})
		case k < 10:
			ops = append(ops, &walOp{Op: walOpLinks, Restore: edges(1 + rng.IntN(2))})
		case k == 10:
			ops = append(ops, &walOp{Op: walOpLinks, Fail: edges(rng.IntN(3)), Replace: true})
		default:
			ops = append(ops, refused[rng.IntN(len(refused))])
		}
	}
	return ops
}

// livePoint is what a live engine is at after one accepted record.
type livePoint struct {
	demand   *demand.Demand
	capacity map[int]float64
	version  uint64
	seq      uint64
	hash     uint64
	links    *LinkUpdate
	walBytes int64
}

func sameDemand(a, b *demand.Demand) bool {
	if a == nil || b == nil {
		return a == b
	}
	return demand.Equal(a, b, 0)
}

// hypercubeOpener writes a hypercube(3) topology spec into dir and returns
// Open of an engine on it (valiant, R 3, seed 5) logging to the WAL at the
// given path; engine and log close at cleanup.
func hypercubeOpener(t *testing.T, dir string) func(walPath string) *Engine {
	t.Helper()
	topo := filepath.Join(dir, "topo.json")
	f, err := os.Create(topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.EncodeGraph(f, gen.Hypercube(3)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return func(walPath string) *Engine {
		t.Helper()
		opened, err := Open(Files{Topo: topo, WAL: walPath}, Config{RouterName: "valiant", R: 3, Seed: 5, Workers: 1}, oblivious.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { opened.WAL.Close() })
		t.Cleanup(opened.Engine.Close)
		return opened.Engine
	}
}

// TestCrashAtEveryPrefixReplaysLive drives a live engine with a log through
// a seeded record mix, then crashes it, in effect, after every accepted
// record: for every prefix k of its log, the pure fold from the startup
// state gives the live engine's demand, capacity map, link version and seq
// after its k-th record, and Open on a copy of the log cut to k records
// gives the live hash and link report at that point.
func TestCrashAtEveryPrefixReplaysLive(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "live.wal")
	open := hypercubeOpener(t, dir)
	live := open(walPath)
	g := live.cfg.Graph
	var err error
	at := func() livePoint {
		t.Helper()
		info, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		ls := live.links.Load()
		return livePoint{live.LastSubmitted(), ls.capacity, ls.version, live.opSeq.Load(), live.Hash(), linksOf(live), info.Size()}
	}

	points := []livePoint{at()}
	start := live.at(live.links.Load(), nil)
	refused := 0
	for i, op := range prefixOps(rand.New(rand.NewPCG(42, 0)), g.NumVertices(), g.NumEdges(), 50) {
		before := live.opSeq.Load()
		if op.Op == walOpLinks {
			_, err = live.applyLinkEvent(op)
		} else {
			_, err = live.acceptDemand(context.Background(), op)
		}
		switch logged := live.opSeq.Load() != before; {
		case logged && err != nil:
			t.Fatalf("op %d %+v: logged, yet refused: %v", i, op, err)
		case logged:
			points = append(points, at())
		default:
			refused++ // refused, or a link event that changes nothing
		}
	}
	if len(points) < 30 || refused < 5 {
		t.Fatalf("%d records accepted and %d not: the mix must exercise both", len(points)-1, refused)
	}

	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	records, _ := wal.Scan(raw)
	if len(records) != len(points)-1 {
		t.Fatalf("log holds %d records, live accepted %d", len(records), len(points)-1)
	}
	for k, want := range points {
		r := fold(start, &wal.Recovery{Records: records[:k]})
		got := r.to
		if r.stats.Applied != k || r.stats.Skipped != 0 {
			t.Fatalf("prefix %d: fold applied %d and skipped %d", k, r.stats.Applied, r.stats.Skipped)
		}
		if !sameDemand(got.demand, want.demand) || !maps.Equal(got.capacity, want.capacity) || got.version != want.version || got.seq != want.seq {
			t.Fatalf("prefix %d: fold gives demand %v, capacity %v, version %d, seq %d; live %v, %v, %d, %d",
				k, got.demand, got.capacity, got.version, got.seq, want.demand, want.capacity, want.version, want.seq)
		}

		cut := filepath.Join(dir, fmt.Sprintf("cut%d.wal", k))
		if err := os.WriteFile(cut, raw[:want.walBytes], 0o644); err != nil {
			t.Fatal(err)
		}
		e := open(cut)
		if got := e.Hash(); got != want.hash {
			t.Fatalf("prefix %d: Open gives hash %016x, live %016x", k, got, want.hash)
		}
		if got := linksOf(e); !reflect.DeepEqual(got, want.links) {
			t.Fatalf("prefix %d: Open gives links %+v, live %+v", k, got, want.links)
		}
		if got := e.LastSubmitted(); !sameDemand(got, want.demand) {
			t.Fatalf("prefix %d: Open gives demand %v, live %v", k, got, want.demand)
		}
		e.Close()
	}
}

// TestHealthyRestoreIsNoLinkEvent: a snapshot taken healthy after link
// events restores at its link version without publishing a link event — only
// a map that moved off the startup sample is one — and a replay of an empty
// log over it changes nothing but the replay count.
func TestHealthyRestoreIsNoLinkEvent(t *testing.T) {
	e := testEngine(t, Config{Seed: 3})
	if _, err := e.FailEdges(0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RestoreEdges(0); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.writeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(&buf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.ReplayWAL(&wal.Recovery{}); err != nil {
		t.Fatal(err)
	}
	if got := linksOf(r); got.Version != 3 || got.Degraded {
		t.Fatalf("restored link state %+v, want healthy at version 3", got)
	}
	if got, want := r.Hash(), e.Hash(); got != want {
		t.Fatalf("restored hash %016x, live %016x", got, want)
	}
	if n := r.metrics.linkEvents.Value(); n != 0 || r.metrics.walReplays.Value() != 1 {
		t.Fatalf("restore counted %d link events and %d replays, want 0 and 1", n, r.metrics.walReplays.Value())
	}
	for _, ev := range r.Events() {
		if ev.Type == obs.EventLink || ev.Type == obs.EventHealth {
			t.Fatalf("restore journaled %s %v", ev.Type, ev.Detail)
		}
	}
}
