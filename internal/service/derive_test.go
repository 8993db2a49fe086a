package service

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"sparseroute/internal/core"
	"sparseroute/internal/demand"
	"sparseroute/internal/graph"
	"sparseroute/internal/graph/gen"
	"sparseroute/internal/oblivious"
	"sparseroute/internal/serial"
	"sparseroute/internal/wal"
)

// goldenStartHash and goldenStartPaths are the startup system of
// TestLinkEventGoldenHash's engine.
const (
	goldenStartHash  = 0x064b3909470f40a8
	goldenStartPaths = 8064
)

// wan64Engine is TestLinkEventGoldenHash's engine: the bench WAN (topology
// seed 64), a 12-tree Räcke router, R 4, seed 7. cfg supplies the rest.
func wan64Engine(tb testing.TB, cfg Config) *Engine {
	tb.Helper()
	g := gen.SyntheticWAN(64, 40, rand.New(rand.NewPCG(64, 64)))
	router, err := oblivious.Build("raecke", g, &oblivious.BuildOptions{Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Graph, cfg.Router, cfg.RouterName, cfg.R, cfg.Seed, cfg.Workers = g, router, "raecke", 4, 7, 1
	e, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(e.Close)
	return e
}

// TestLinkEventDerivationEquivalence drives seeded fail/restore/brownout/set
// sequences on the bench WAN and checks
// after every event that what the event derived incrementally equals what a
// from-scratch derivation of its installed system gives: the hash, the
// serving system pair by pair and in order, the uncovered and at-risk pairs.
// The installed system must be a function of the capacity map alone: a twin
// engine, restored to healthy and then driven to the same map by one replace
// record, installs the same system. Restoring every edge must install the
// startup system itself.
func TestLinkEventDerivationEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			e := wan64Engine(t, Config{})
			twin := wan64Engine(t, Config{})
			if e.Hash() != goldenStartHash {
				t.Fatalf("startup hash %016x, want %016x", e.Hash(), uint64(goldenStartHash))
			}
			m := e.cfg.Graph.NumEdges()
			rng := rand.New(rand.NewPCG(seed, 29))
			for step := 0; step < 14; step++ {
				var (
					name string
					err  error
				)
				switch op := rng.IntN(4); op {
				case 0:
					id := rng.IntN(m)
					name = fmt.Sprintf("fail %d", id)
					_, err = e.FailEdges(id)
				case 1:
					failed := linksOf(e).FailedEdges
					id := rng.IntN(m)
					if len(failed) > 0 {
						id = failed[rng.IntN(len(failed))]
					}
					name = fmt.Sprintf("restore %d", id)
					_, err = e.RestoreEdges(id)
				case 2:
					id, c := rng.IntN(m), []float64{0.2, 0.45, 0.8, 1}[rng.IntN(4)]
					name = fmt.Sprintf("capacity %d=%v", id, c)
					_, err = e.setCapacity(id, c)
				default:
					set := make([]int, rng.IntN(3))
					for i := range set {
						set[i] = rng.IntN(m)
					}
					name = fmt.Sprintf("set %v", set)
					_, err = e.setLinkState(set)
				}
				if err != nil {
					t.Fatalf("step %d %s: %v", step, name, err)
				}
				label := fmt.Sprintf("step %d %s", step, name)
				checkDerivation(t, e, label)
				checkPathIndependent(t, e, twin, label)
			}
			checkRestoreEqualsLive(t, e)
			if _, err := e.setLinkState(nil); err != nil {
				t.Fatal(err)
			}
			checkDerivation(t, e, "restore all")
			if got := e.Hash(); got != goldenStartHash {
				t.Errorf("restored everything: hash %016x, want the startup %016x", got, uint64(goldenStartHash))
			}
			if got := e.installedSystem().TotalPaths(); got != goldenStartPaths {
				t.Errorf("restored everything: %d installed paths, want %d", got, goldenStartPaths)
			}
			if e.installedSystem() != e.original {
				t.Error("restored everything: the engine must install the startup system itself")
			}
		})
	}
}

// checkRestoreEqualsLive round-trips e through writeSnapshot and Restore,
// and requires the restored engine to install e's system at e's
// link state, from a snapshot that stores the startup sample alone.
func checkRestoreEqualsLive(t *testing.T, e *Engine) {
	t.Helper()
	var buf bytes.Buffer
	if err := e.writeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := serial.DecodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := serial.PathSystemHash(snap.System); got != goldenStartHash {
		t.Errorf("snapshot system hashes %016x, want the startup %016x", got, uint64(goldenStartHash))
	}
	r, err := Restore(&buf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, want := r.Hash(), e.Hash(); got != want {
		t.Errorf("restored hash %016x, live %016x", got, want)
	}
	if !sameSystems(r.installedSystem(), e.installedSystem()) {
		t.Error("restored installed system differs from the live one")
	}
	if got, want := linksOf(r), linksOf(e); !reflect.DeepEqual(got, want) {
		t.Errorf("restored link state %+v, live %+v", got, want)
	}
}

// checkPathIndependent restores every edge of twin, drives it to e's
// capacity map with one replace record, and requires the two engines to
// install the same system although they got there by different events.
func checkPathIndependent(t *testing.T, e, twin *Engine, step string) {
	t.Helper()
	if _, err := twin.setLinkState(nil); err != nil {
		t.Fatalf("%s: twin: %v", step, err)
	}
	links := linksOf(e)
	op := &walOp{Op: walOpLinks, Replace: true, Fail: links.FailedEdges, Caps: links.DegradedEdges}
	if _, err := twin.applyLinkEvent(op); err != nil {
		t.Fatalf("%s: twin: %v", step, err)
	}
	if got, want := twin.Hash(), e.Hash(); got != want {
		t.Fatalf("%s: twin driven to the same map in one event hashes %016x, want %016x", step, got, want)
	}
	if !sameSystems(twin.installedSystem(), e.installedSystem()) {
		t.Fatalf("%s: twin driven to the same map in one event installs a different system", step)
	}
}

// checkDerivation compares the published link state with a from-scratch
// derivation of its installed system.
func checkDerivation(t *testing.T, e *Engine, step string) {
	t.Helper()
	ls := e.links.Load()
	installed := e.installedSystem()
	if err := installed.Validate(); err != nil {
		t.Fatalf("%s: installed system invalid: %v", step, err)
	}
	if got, want := e.Hash(), serial.PathSystemHash(installed); got != want {
		t.Fatalf("%s: hash %016x, recomputed %016x", step, got, want)
	}
	serving := installed.WithoutEdges(ls.failed)
	if !sameSystems(e.System(), serving) {
		t.Fatalf("%s: serving system differs from the installed system pruned afresh", step)
	}
	if want := serving.UncoveredPairs(installed.Pairs()); !slices.Equal(ls.uncovered, want) {
		t.Fatalf("%s: uncovered %v, recomputed %v", step, ls.uncovered, want)
	}
	if want := referenceAtRisk(ls); !slices.Equal(ls.atRisk, want) {
		t.Fatalf("%s: %d at-risk pairs, recomputed %d", step, len(ls.atRisk), len(want))
	}
}

// referenceAtRisk checks every installed pair: the definition atRiskList's
// shortcuts (unpruned pairs skipped, the second pass over the first pass's
// pairs only) must agree with.
func referenceAtRisk(ls *linkState) []demand.Pair {
	var out []demand.Pair
	for _, p := range ls.installed.Pairs() {
		if len(ls.failed) > 0 && len(ls.serving.Unique(p.U, p.V)) == 1 && len(ls.installed.Unique(p.U, p.V)) > 1 {
			out = append(out, p)
		}
	}
	return out
}

// sameSystems reports whether a and b hold the same pairs and, per pair, the
// same paths in the same order.
func sameSystems(a, b *core.PathSystem) bool {
	pairs := a.Pairs()
	if !slices.Equal(pairs, b.Pairs()) {
		return false
	}
	for _, p := range pairs {
		pa, pb := a.Paths(p.U, p.V), b.Paths(p.U, p.V)
		if !slices.EqualFunc(pa, pb, func(x, y graph.Path) bool {
			return x.Src == y.Src && x.Dst == y.Dst && slices.Equal(x.EdgeIDs, y.EdgeIDs)
		}) {
			return false
		}
	}
	return true
}

// TestOpenDegradedSnapshotCompactsToStartup: a snapshot taken while an edge
// is failed stores the startup sample beside the failed set, and Open
// derives the installed system from the two as the live event did. A file
// in the v4 format, which stored the installed system, is cut back to the
// startup sample on decode. Either way the restored engine reproduces the
// live hash with as many survivor router builds, and restoring the edge
// returns both engines to their startup system.
func TestOpenDegradedSnapshotCompactsToStartup(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(t *testing.T, e *Engine, path string)
	}{
		{"wan64", snapshotFile},
		{"wan64-v4-file", func(t *testing.T, e *Engine, path string) {
			// The v4 writer stored the installed system, extras included.
			var buf bytes.Buffer
			if err := serial.EncodeSnapshot(&buf, &serial.Snapshot{
				Router: e.cfg.RouterName, R: e.cfg.R, Seed: e.cfg.Seed,
				Graph:       e.cfg.Graph,
				System:      e.installedSystem(),
				FailedEdges: linksOf(e).FailedEdges,
				LinkVersion: linksOf(e).Version,
			}); err != nil {
				t.Fatal(err)
			}
			raw := bytes.Replace(buf.Bytes(), []byte(`"version": 5`), []byte(`"version": 4`), 1)
			if bytes.Equal(raw, buf.Bytes()) {
				t.Fatal("snapshot has no version 5 field to rewrite")
			}
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkDegradedOpen(t, wan64Engine(t, Config{}), 70, tc.write)
		})
	}
}

// TestOpenDegradedSnapshotKeepsForeignBaseline: when the startup system was
// never sampled from the snapshot's router (here an SPF sample served under
// the name valiant), Open keeps the stored sample as the baseline rather than
// re-drawing one from the router, and derives the degraded system from it.
func TestOpenDegradedSnapshotKeepsForeignBaseline(t *testing.T) {
	g := gen.Hypercube(3)
	spf, err := core.RSample(oblivious.NewSPF(g), core.AllPairs(g.NumVertices()), 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	e := testEngine(t, Config{Graph: g, System: spf, RouterName: "valiant", Seed: 7})
	r := checkDegradedOpen(t, e, 0, snapshotFile)
	if !sameSystems(r.original, spf) {
		t.Fatal("a foreign startup system must stay the baseline")
	}
}

// snapshotFile writes e's snapshot to path.
func snapshotFile(t *testing.T, e *Engine, path string) {
	t.Helper()
	if _, err := e.SnapshotToFile(path); err != nil {
		t.Fatal(err)
	}
}

// checkDegradedOpen fails edge fail on e, has write store e's snapshot, and
// opens it. The restored engine must reproduce e's hash with as many
// survivor router builds, and restoring the edge must return both engines to
// their startup system. It returns the restored engine with the edge restored.
func checkDegradedOpen(t *testing.T, e *Engine, fail int, write func(*testing.T, *Engine, string)) *Engine {
	t.Helper()
	start := e.Hash()
	if _, err := e.FailEdges(fail); err != nil {
		t.Fatal(err)
	}
	if e.Hash() == start {
		t.Fatalf("failing edge %d installed no extra path", fail)
	}
	snap := filepath.Join(t.TempDir(), "sys.snap")
	write(t, e, snap)
	opened, err := Open(Files{Snapshot: snap}, Config{Workers: 1}, oblivious.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := opened.Engine
	t.Cleanup(r.Close)
	if r.Hash() != e.Hash() {
		t.Fatalf("restored hash %016x, live %016x", r.Hash(), e.Hash())
	}
	if got, want := r.metrics.survivorBuilds.Value(), e.metrics.survivorBuilds.Value(); got != want {
		t.Errorf("restore built %d survivor routers, the live event %d", got, want)
	}
	for name, eng := range map[string]*Engine{"uncrashed": e, "restored": r} {
		if _, err := eng.RestoreEdges(fail); err != nil {
			t.Fatal(err)
		}
		if got := eng.Hash(); got != start {
			t.Errorf("%s engine after restore %d: hash %016x, want the startup %016x", name, fail, got, start)
		}
		if eng.installedSystem() != eng.original {
			t.Errorf("%s engine after restore %d must install its startup system", name, fail)
		}
	}
	return r
}

// TestOpenDegradedSnapshotDerivesOnce: Open folds the log's link records over
// a degraded snapshot's capacity map before deriving anything, so a restart
// whose log moves the map on derives only the map the log ends in — the
// survivor routers of that one derivation, one link event — not the
// snapshot's map first.
func TestOpenDegradedSnapshotDerivesOnce(t *testing.T) {
	dir := t.TempDir()
	snap, walPath := filepath.Join(dir, "sys.snap"), filepath.Join(dir, "sys.wal")
	log, _, err := wal.Open(walPath, &wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	live := wan64Engine(t, Config{WAL: log})
	if _, err := live.FailEdges(70); err != nil {
		t.Fatal(err)
	}
	snapshotFile(t, live, snap)
	before := live.metrics.survivorBuilds.Value()
	if _, err := live.FailEdges(20); err != nil {
		t.Fatal(err)
	}
	builds := live.metrics.survivorBuilds.Value() - before

	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	copied := filepath.Join(dir, "copy.wal")
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
	if got := opened.Replay.Applied; got != 1 {
		t.Fatalf("replay applied %d records, want the one fail", got)
	}
	if got, want := r.Hash(), live.Hash(); got != want {
		t.Errorf("restored hash %016x, live %016x", got, want)
	}
	if got, want := linksOf(r), linksOf(live); !reflect.DeepEqual(got, want) {
		t.Errorf("restored link state %+v, live %+v", got, want)
	}
	if got := r.metrics.survivorBuilds.Value(); got != builds {
		t.Errorf("restart built %d survivor routers, one derivation of {20,70} builds %d", got, builds)
	}
	if got := r.metrics.linkEvents.Value(); got != 1 {
		t.Errorf("restart counted %d link events, want 1", got)
	}
}

// TestOpenRefusesUnreadableSnapshot: Open samples from the topology only
// when the snapshot file does not exist. A snapshot it cannot open for any
// other reason (here ENOTDIR: its directory is a regular file) refuses
// startup, since a fresh sample would drop the snapshot's link state and
// watermark and the next checkpoint would overwrite the file.
func TestOpenRefusesUnreadableSnapshot(t *testing.T) {
	dir := t.TempDir()
	topo := filepath.Join(dir, "topo.json")
	f, err := os.Create(topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.EncodeGraph(f, gen.Hypercube(3)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	notDir := filepath.Join(dir, "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := Config{RouterName: "spf", R: 2, Seed: 7, Workers: 1}

	opened, err := Open(Files{Snapshot: filepath.Join(dir, "missing.snap"), Topo: topo}, cfg, oblivious.BuildOptions{})
	if err != nil {
		t.Fatalf("a missing snapshot must fall back to the topology: %v", err)
	}
	opened.Engine.Close()
	if opened.Restored {
		t.Fatal("nothing to restore, yet Open reports a restore")
	}

	opened, err = Open(Files{Snapshot: filepath.Join(notDir, "sys.snap"), Topo: topo}, cfg, oblivious.BuildOptions{})
	if err == nil {
		opened.Engine.Close()
		t.Fatal("Open sampled afresh over a snapshot it could not open")
	}
	if errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Open error %v, want the ENOTDIR it met", err)
	}
}

// BenchmarkLinkEventWAN64 times one fail+restore cycle on the golden engine,
// rotating over the bench WAN's non-bridge edges. No demand is standing, so
// the row is the link event's own derivation (prune, survivor router,
// recovery, widening), not the re-adapt it would schedule.
func BenchmarkLinkEventWAN64(b *testing.B) {
	e := wan64Engine(b, Config{})
	edges := nonBridgeEdges(e.cfg.Graph)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := edges[i%len(edges)]
		if _, err := e.FailEdges(id); err != nil {
			b.Fatal(err)
		}
		if _, err := e.RestoreEdges(id); err != nil {
			b.Fatal(err)
		}
	}
}

// nonBridgeEdges lists the edges of g whose failure leaves g connected.
func nonBridgeEdges(g *graph.Graph) []int {
	var edges []int
	for id := 0; id < g.NumEdges(); id++ {
		sub, _ := graph.RemoveEdges(g, map[int]bool{id: true})
		if comp := components(sub); !slices.ContainsFunc(comp, func(c int) bool { return c != comp[0] }) {
			edges = append(edges, id)
		}
	}
	return edges
}
