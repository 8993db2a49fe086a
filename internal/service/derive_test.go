package service

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"slices"
	"testing"

	"sparseroute/internal/core"
	"sparseroute/internal/graph"
	"sparseroute/internal/graph/gen"
	"sparseroute/internal/oblivious"
	"sparseroute/internal/obs"
	"sparseroute/internal/serial"
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
// sequences on the bench WAN, with and without headroom widening, and checks
// after every event that what the event derived incrementally equals what a
// from-scratch derivation of its installed system gives: the hash, the
// serving system pair by pair and in order, the uncovered and at-risk pairs.
// The installed system must be a function of the capacity map alone: a twin
// engine, restored to healthy and then driven to the same map by one replace
// record, installs the same system. Restoring every edge must install the
// startup system itself.
func TestLinkEventDerivationEquivalence(t *testing.T) {
	for _, tc := range []struct {
		headroom float64
		seed     uint64
	}{
		{0, 1}, {0.5, 2}, {0, 3}, {0.5, 4},
	} {
		t.Run(fmt.Sprintf("headroom=%v/seed=%d", tc.headroom, tc.seed), func(t *testing.T) {
			e := wan64Engine(t, Config{AtRiskHeadroom: tc.headroom})
			twin := wan64Engine(t, Config{AtRiskHeadroom: tc.headroom})
			if e.Hash() != goldenStartHash {
				t.Fatalf("startup hash %016x, want %016x", e.Hash(), uint64(goldenStartHash))
			}
			m := e.cfg.Graph.NumEdges()
			rng := rand.New(rand.NewPCG(tc.seed, 29))
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
					failed := e.Links().FailedEdges
					id := rng.IntN(m)
					if len(failed) > 0 {
						id = failed[rng.IntN(len(failed))]
					}
					name = fmt.Sprintf("restore %d", id)
					_, err = e.RestoreEdges(id)
				case 2:
					id, c := rng.IntN(m), []float64{0.2, 0.45, 0.8, 1}[rng.IntN(4)]
					name = fmt.Sprintf("capacity %d=%v", id, c)
					_, err = e.SetCapacity(id, c)
				default:
					set := make([]int, rng.IntN(3))
					for i := range set {
						set[i] = rng.IntN(m)
					}
					name = fmt.Sprintf("set %v", set)
					_, err = e.SetLinkState(set)
				}
				if err != nil {
					t.Fatalf("step %d %s: %v", step, name, err)
				}
				label := fmt.Sprintf("step %d %s", step, name)
				checkDerivation(t, e, label)
				checkPathIndependent(t, e, twin, label)
			}
			if _, err := e.SetLinkState(nil); err != nil {
				t.Fatal(err)
			}
			checkDerivation(t, e, "restore all")
			if got := e.Hash(); got != goldenStartHash {
				t.Errorf("restored everything: hash %016x, want the startup %016x", got, uint64(goldenStartHash))
			}
			if got := e.InstalledSystem().TotalPaths(); got != goldenStartPaths {
				t.Errorf("restored everything: %d installed paths, want %d", got, goldenStartPaths)
			}
			if e.InstalledSystem() != e.original {
				t.Error("restored everything: the engine must install the startup system itself")
			}
		})
	}
}

// checkPathIndependent restores every edge of twin, drives it to e's
// capacity map with one replace record, and requires the two engines to
// install the same system although they got there by different events.
func checkPathIndependent(t *testing.T, e, twin *Engine, step string) {
	t.Helper()
	if _, err := twin.SetLinkState(nil); err != nil {
		t.Fatalf("%s: twin: %v", step, err)
	}
	links := e.Links()
	op := &walOp{Op: walOpLinks, Replace: true, Fail: links.FailedEdges}
	for _, c := range links.DegradedEdges {
		op.Caps = append(op.Caps, walCap(c))
	}
	if _, err := twin.applyLinkEvent(op); err != nil {
		t.Fatalf("%s: twin: %v", step, err)
	}
	if got, want := twin.Hash(), e.Hash(); got != want {
		t.Fatalf("%s: twin driven to the same map in one event hashes %016x, want %016x", step, got, want)
	}
	if !sameSystems(twin.InstalledSystem(), e.InstalledSystem()) {
		t.Fatalf("%s: twin driven to the same map in one event installs a different system", step)
	}
}

// checkDerivation compares the published link state with a from-scratch
// derivation of its installed system.
func checkDerivation(t *testing.T, e *Engine, step string) {
	t.Helper()
	ls := e.links.Load()
	installed := e.InstalledSystem()
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
	if want := referenceAtRisk(ls, e.cfg.AtRiskHeadroom); !slices.Equal(ls.atRisk, want) {
		t.Fatalf("%s: %d at-risk pairs, recomputed %d", step, len(ls.atRisk), len(want))
	}
}

// referenceAtRisk checks every installed pair for both triggers: the
// definition atRiskList's shortcuts (unpruned pairs skipped, the second pass
// over the first pass's pairs only) must agree with.
func referenceAtRisk(ls *linkState, headroom float64) []atRiskPair {
	if len(ls.capacity) == 0 {
		return nil
	}
	var out []atRiskPair
	for _, p := range ls.installed.Pairs() {
		surv := ls.serving.Unique(p.U, p.V)
		if len(ls.failed) > 0 && len(surv) == 1 && len(ls.installed.Unique(p.U, p.V)) > 1 {
			out = append(out, atRiskPair{Pair: p, Trigger: TriggerSingleSurvivor})
			continue
		}
		if headroom > 0 && len(surv) > 0 && pairHeadroom(ls, surv) < headroom {
			out = append(out, atRiskPair{Pair: p, Trigger: TriggerHeadroom})
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
// is failed stores the recovery extras beside the startup sample. Open must
// re-draw the startup sample as the compaction baseline, so restoring the
// edge returns the restored engine to the startup system exactly as it does
// the engine that never restarted.
func TestOpenDegradedSnapshotCompactsToStartup(t *testing.T) {
	e := wan64Engine(t, Config{})
	if _, err := e.FailEdges(70); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "sys.snap")
	if _, err := e.SnapshotToFile(snap); err != nil {
		t.Fatal(err)
	}
	opened, err := Open(Files{Snapshot: snap}, Config{Workers: 1}, oblivious.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := opened.Engine
	t.Cleanup(r.Close)
	if r.Hash() != e.Hash() {
		t.Fatalf("restored hash %016x, snapshot of %016x", r.Hash(), e.Hash())
	}
	for name, eng := range map[string]*Engine{"uncrashed": e, "restored": r} {
		if _, err := eng.RestoreEdges(70); err != nil {
			t.Fatal(err)
		}
		if got := eng.Hash(); got != goldenStartHash {
			t.Errorf("%s engine after restore 70: hash %016x, want the startup %016x", name, got, uint64(goldenStartHash))
		}
		if got := eng.InstalledSystem().TotalPaths(); got != goldenStartPaths {
			t.Errorf("%s engine after restore 70: %d installed paths, want %d", name, got, goldenStartPaths)
		}
	}
	for _, ev := range r.Events() {
		if ev.Type == obs.EventBaseline {
			t.Errorf("baseline re-drawn, yet journaled: %v", ev.Detail)
		}
	}
}

// TestOpenDegradedSnapshotKeepsForeignBaseline: when the re-drawn sample is
// not a prefix of the restored system (here the system was never sampled
// from the snapshot's router), Open keeps the restored system as the
// baseline, as before, and journals why.
func TestOpenDegradedSnapshotKeepsForeignBaseline(t *testing.T) {
	g := gen.Hypercube(3)
	spf, err := core.RSample(oblivious.NewSPF(g), core.AllPairs(g.NumVertices()), 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	e := testEngine(t, Config{Graph: g, System: spf, RouterName: "valiant", Seed: 7})
	if _, err := e.FailEdges(0); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "sys.snap")
	if _, err := e.SnapshotToFile(snap); err != nil {
		t.Fatal(err)
	}
	opened, err := Open(Files{Snapshot: snap}, Config{Workers: 1}, oblivious.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := opened.Engine
	t.Cleanup(r.Close)
	if r.original != r.InstalledSystem() {
		t.Fatal("a foreign system must stay the baseline")
	}
	journaled := false
	for _, ev := range r.Events() {
		journaled = journaled || ev.Type == obs.EventBaseline
	}
	if !journaled {
		t.Fatal("keeping the restored baseline must be journaled")
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
