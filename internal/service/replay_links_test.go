package service

import (
	"errors"
	"expvar"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sparseroute/internal/demand"
	"sparseroute/internal/oblivious"
	"sparseroute/internal/wal"
)

// flapLog checkpoints e to snap, which truncates e's log, then runs cycles
// fail/restore cycles over the bench WAN's non-bridge edges: the log the
// wan64-flap workload leaves for a restart to replay. rng picks the edges;
// nil rotates through them in order.
func flapLog(tb testing.TB, e *Engine, snap string, cycles int, rng *rand.Rand) {
	tb.Helper()
	if _, err := e.SnapshotToFile(snap); err != nil {
		tb.Fatal(err)
	}
	edges := nonBridgeEdges(e.cfg.Graph)
	for i := 0; i < cycles; i++ {
		id := edges[i%len(edges)]
		if rng != nil {
			id = edges[rng.IntN(len(edges))]
		}
		if _, err := e.FailEdges(id); err != nil {
			tb.Fatal(err)
		}
		if _, err := e.RestoreEdges(id); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestReplayFoldsLinkRecords: replay folds link records into the capacity
// map and derives only the state the log ends in. A checkpoint plus twenty
// fail/restore cycles on the bench WAN ends healthy, so Open builds no
// survivor router and installs the startup system; the same log ending with
// a failure and a brownout replays to the live engine's state, building one
// router per avoid set of that final state, as many as a twin driven there
// in one event builds.
func TestReplayFoldsLinkRecords(t *testing.T) {
	dir := t.TempDir()
	snap, walPath := filepath.Join(dir, "sys.snap"), filepath.Join(dir, "sys.wal")
	log, _, err := wal.Open(walPath, &wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	live := wan64Engine(t, Config{WAL: log})
	d := demand.New()
	d.Set(0, 63, 2)
	d.Set(5, 40, 1)
	d.Set(17, 29, 1.5)
	submitAndWait(t, live, d)
	flapLog(t, live, snap, 20, rand.New(rand.NewPCG(31, 20)))
	if live.metrics.survivorBuilds.Value() == 0 {
		t.Fatal("the live engine never built a survivor router")
	}

	// open brings an engine up from the snapshot and a copy of the log as it
	// stands, and checks it replayed every record to the live engine's state.
	open := func(t *testing.T, name string, records int) *Engine {
		t.Helper()
		raw, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		copied := filepath.Join(dir, name)
		if err := os.WriteFile(copied, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		opened, err := Open(Files{Snapshot: snap, WAL: copied}, Config{Workers: 1}, oblivious.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		r := opened.Engine
		t.Cleanup(func() { opened.WAL.Close() })
		t.Cleanup(r.Close)
		if got := opened.Replay; got.Applied != records || got.Skipped != 0 {
			t.Fatalf("replay applied %d and skipped %d records, want %d applied", got.Applied, got.Skipped, records)
		}
		if got, want := r.Hash(), live.Hash(); got != want {
			t.Errorf("replayed hash %016x, live %016x", got, want)
		}
		if got, want := linksOf(r), linksOf(live); !reflect.DeepEqual(got, want) {
			t.Errorf("replayed link state %+v, live %+v", got, want)
		}
		if !sameSystems(r.installedSystem(), live.installedSystem()) {
			t.Error("replayed installed system differs from the live one")
		}
		if got, want := r.LastSubmitted(), live.LastSubmitted(); !demand.Equal(got, want, 0) {
			t.Errorf("replayed demand %v, live %v", got, want)
		}
		return r
	}

	t.Run("ends healthy", func(t *testing.T) {
		// The re-seed and 40 flaps.
		r := open(t, "healthy.wal", 41)
		if got := r.metrics.survivorBuilds.Value(); got != 0 {
			t.Errorf("replay built %d survivor routers, want 0", got)
		}
		if got := r.Hash(); got != goldenStartHash || r.installedSystem() != r.original {
			t.Errorf("replayed hash %016x, want the startup system and its hash %016x", got, uint64(goldenStartHash))
		}
	})

	t.Run("ends degraded", func(t *testing.T) {
		// Fail edge 70 (38 pairs lose every candidate) and brown out another
		// edge.
		weak := nonBridgeEdges(live.cfg.Graph)[0]
		if _, err := live.FailEdges(70); err != nil {
			t.Fatal(err)
		}
		update, err := live.setCapacity(weak, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		if update.ProactivePaths == 0 {
			t.Fatalf("the state with edge 70 failed widened nothing: %+v", update)
		}
		twin := wan64Engine(t, Config{})
		if _, err := twin.applyLinkEvent(&walOp{Op: walOpLinks, Fail: []int{70},
			Caps: []EdgeCapacity{{Edge: weak, Capacity: 0.2}}}); err != nil {
			t.Fatal(err)
		}

		r := open(t, "degraded.wal", 43)
		builds, want := r.metrics.survivorBuilds.Value(), twin.metrics.survivorBuilds.Value()
		if builds != want || builds > 1 {
			t.Errorf("replay built %d survivor routers, want %d, one per avoid set of the final state", builds, want)
		}
	})
}

// TestReplayLegacyLinkRecord: link records older versions wrote replay to
// the hash and installed system of the engine that applies them live, and
// build the routers it builds — whether the record carries no draws, or the
// paths its sampling passes drew, which replay ignores.
func TestReplayLegacyLinkRecord(t *testing.T) {
	for _, tc := range []struct {
		name   string
		engine func(*testing.T) *Engine
		fail   int
		record string
	}{
		{"without draws", func(t *testing.T) *Engine { return wan64Engine(t, Config{}) },
			70, `{"seq":1,"op":"links","fail":[70]}`},
		{"with draws", func(t *testing.T) *Engine { return testEngine(t, Config{Seed: 3}) },
			0, drawsFail0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			live := tc.engine(t)
			if _, err := live.FailEdges(tc.fail); err != nil {
				t.Fatal(err)
			}
			r := tc.engine(t)
			stats, err := r.ReplayWAL(&wal.Recovery{Records: [][]byte{[]byte(tc.record)}})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Applied != 1 {
				t.Fatalf("replay %+v, want the record applied", stats)
			}
			if got, want := r.metrics.survivorBuilds.Value(), live.metrics.survivorBuilds.Value(); got != want {
				t.Errorf("replay built %d survivor routers, live %d", got, want)
			}
			if got, want := r.Hash(), live.Hash(); got != want {
				t.Errorf("replayed hash %016x, live %016x", got, want)
			}
			if !sameSystems(r.installedSystem(), live.installedSystem()) {
				t.Error("replayed installed system differs from the live one")
			}
		})
	}
}

// TestRefusedLinkEventLeavesNoTrace: a link event is derived before its
// record is logged, but when the record cannot be made durable the event
// returns the WAL error and leaves no trace — link version, hash, journal
// and every counter are what they were, survivor_builds included, although
// the derivation built a router.
func TestRefusedLinkEventLeavesNoTrace(t *testing.T) {
	log, _, err := wal.Open(filepath.Join(t.TempDir(), "sys.wal"), &wal.Options{
		OpenWriter: func(path string) (wal.Writer, error) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, err
			}
			return wal.NewFaultWriter(f, 0, true), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	e := wan64Engine(t, Config{WAL: log})
	counters := func() map[string]int64 {
		out := make(map[string]int64)
		e.metrics.Vars().Do(func(kv expvar.KeyValue) {
			if v, ok := kv.Value.(*expvar.Int); ok {
				out[kv.Key] = v.Value()
			}
		})
		return out
	}
	version, hash, events, before := linksOf(e).Version, e.Hash(), e.Events(), counters()

	if _, err := e.FailEdges(70); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("fail 70 on a failing log: %v, want the injected WAL error", err)
	}
	if got := linksOf(e).Version; got != version {
		t.Errorf("link version %d, want %d", got, version)
	}
	if got := e.Hash(); got != hash || e.installedSystem() != e.original {
		t.Errorf("hash %016x, want the startup %016x and system", got, hash)
	}
	if got := e.Events(); !reflect.DeepEqual(got, events) {
		t.Errorf("journal grew by %d events: %v", len(got)-len(events), got[len(events):])
	}
	if got := counters(); !reflect.DeepEqual(got, before) {
		t.Errorf("counters moved:\n got  %v\n want %v", got, before)
	}
}

// openedHash keeps BenchmarkOpenReplayWAN64's hash reads live.
var openedHash uint64

// BenchmarkOpenReplayWAN64 times Open on the flap-shaped log: the golden
// engine checkpointed, then twenty fail/restore cycles over the bench WAN's
// non-bridge edges, brought back from the snapshot and the WAL and hashed.
func BenchmarkOpenReplayWAN64(b *testing.B) {
	dir := b.TempDir()
	snap, walPath := filepath.Join(dir, "sys.snap"), filepath.Join(dir, "sys.wal")
	log, _, err := wal.Open(walPath, &wal.Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	e := wan64Engine(b, Config{WAL: log})
	flapLog(b, e, snap, 20, nil)
	e.Close()
	log.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opened, err := Open(Files{Snapshot: snap, WAL: walPath}, Config{Workers: 1}, oblivious.BuildOptions{})
		if err != nil {
			b.Fatal(err)
		}
		openedHash = opened.Engine.Hash()
		opened.Engine.Close()
		opened.WAL.Close()
	}
}
