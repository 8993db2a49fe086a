package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sparseroute/internal/core"
	"sparseroute/internal/demand"
	"sparseroute/internal/flow"
	"sparseroute/internal/graph"
	"sparseroute/internal/graph/gen"
	"sparseroute/internal/oblivious"
	"sparseroute/internal/obs"
	"sparseroute/internal/wal"
)

// walEngine builds an engine whose mutations are logged to the WAL at path,
// replaying whatever the log already holds. The returned log is closed by
// test cleanup (after the engine, which never closes an injected log).
func walEngine(t *testing.T, path string, cfg Config) (*Engine, *wal.Log, *ReplayStats) {
	t.Helper()
	return openWALEngine(t, path, cfg, false)
}

// coldWALEngine is walEngine with every epoch solved cold, never as a delta,
// so that two solves of one matrix run the same deterministic path.
func coldWALEngine(t *testing.T, path string, cfg Config) (*Engine, *wal.Log, *ReplayStats) {
	t.Helper()
	return openWALEngine(t, path, cfg, true)
}

func openWALEngine(t *testing.T, path string, cfg Config, coldOnly bool) (*Engine, *wal.Log, *ReplayStats) {
	t.Helper()
	log, rec, err := wal.Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.WAL = log
	e := testEngine(t, cfg)
	e.coldOnly = coldOnly
	t.Cleanup(func() { log.Close() })
	stats, err := e.ReplayWAL(rec)
	if err != nil {
		t.Fatal(err)
	}
	return e, log, stats
}

// waitActive polls until the engine has published at least one epoch — the
// replay path re-solves asynchronously, so recovered state lands shortly
// after ReplayWAL returns.
func waitActive(t *testing.T, e *Engine) *State {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if st := e.Active(); st != nil {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("engine never published an epoch")
	return nil
}

// submitAndWait pushes d as the next epoch and blocks until it solves, so a
// captureState that follows reads a settled active state instead of racing
// an in-flight solve.
func submitAndWait(t *testing.T, e *Engine, d *demand.Demand) {
	t.Helper()
	epoch, err := e.submit(d)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if out, err := e.Wait(ctx, epoch); err != nil || !out.OK {
		t.Fatalf("epoch did not solve: out=%+v err=%v", out, err)
	}
}

// engineState is the durability contract: everything a crash must not lose.
type engineState struct {
	demand      *demand.Demand
	hash        uint64
	linkVersion uint64
	failed      []int
	degraded    []EdgeCapacity
	congestion  float64
}

func captureState(e *Engine) engineState {
	ls := e.links.Load()
	st := e.Active()
	var cong float64
	if st != nil {
		cong = st.Congestion
	}
	return engineState{
		demand:      e.LastSubmitted(),
		hash:        e.Hash(),
		linkVersion: ls.version,
		failed:      append([]int(nil), ls.failedIDs...),
		degraded:    append([]EdgeCapacity(nil), ls.degradedCaps...),
		congestion:  cong,
	}
}

func assertStateMatches(t *testing.T, want, got engineState) {
	t.Helper()
	if !demand.Equal(want.demand, got.demand, 1e-12) {
		t.Fatalf("recovered demand matrix differs:\nwant %v\ngot  %v", want.demand, got.demand)
	}
	if got.hash != want.hash {
		t.Fatalf("recovered path-system hash %016x != control %016x", got.hash, want.hash)
	}
	if got.linkVersion != want.linkVersion {
		t.Fatalf("recovered link version %d != control %d", got.linkVersion, want.linkVersion)
	}
	if fmt.Sprint(got.failed) != fmt.Sprint(want.failed) {
		t.Fatalf("recovered failed edges %v != control %v", got.failed, want.failed)
	}
	if fmt.Sprint(got.degraded) != fmt.Sprint(want.degraded) {
		t.Fatalf("recovered capacity overrides %v != control %v", got.degraded, want.degraded)
	}
	if diff := got.congestion - want.congestion; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("recovered congestion %v != control %v", got.congestion, want.congestion)
	}
}

// TestWALCrashRecoveryDrill is the kill-9-mid-churn drill at the engine
// layer: concurrent submit/patch/link-flap traffic against a WAL-backed
// engine, a hard stop with no snapshot, then a cold rebuild plus replay. The
// recovered engine must match the crashed one's final demand matrix, link
// state, path-system hash, and post-replay serving congestion exactly — the
// crashed engine, whose state was never persisted any other way, is the
// never-crashed control.
func TestWALCrashRecoveryDrill(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "drill.wal")
	g := gen.Hypercube(3)
	router, err := oblivious.Build("valiant", g, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Warm starts are disabled so both solves of the final matrix run the
	// same deterministic cold path — congestion must match to the bit, not
	// just approximately.
	cfg := Config{Graph: g, Router: router, RouterName: "valiant", R: 3, Seed: 11,
		Workers: 2}

	e, log, _ := coldWALEngine(t, walPath, cfg)

	// A base matrix, so patches always have something to merge into.
	base := demand.New()
	base.Set(0, 7, 2)
	base.Set(1, 6, 1)
	if _, err := e.submit(base); err != nil {
		t.Fatal(err)
	}

	// Churn: three mutation classes race for ~40 operations each; a burst of
	// accepted mutations coalesces in the epoch slot, and replay must still
	// land on the last one.
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			d := demand.New()
			d.Set(0, 7, 1+float64(i%5))
			d.Set(2, 5, 0.5+float64(i%3))
			_, _ = e.submit(d)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			_, _ = e.patch([]PairAmount{{U: 1, V: 6, Amount: 1 + float64(i%4)}}, nil)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			edge := i % 12
			switch i % 4 {
			case 0:
				_, _ = e.FailEdges(edge)
			case 1:
				_, _ = e.RestoreEdges(edge)
			case 2:
				_, _ = e.setCapacity(edge, 0.5)
			default:
				_, _ = e.setCapacity(edge, 1)
			}
		}
	}()
	wg.Wait()

	// A deterministic closing sequence so the final state is interesting:
	// one failed edge, one brownout, one known matrix, solved to completion.
	if _, err := e.setLinkState([]int{3}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.setCapacity(8, 0.5); err != nil {
		t.Fatal(err)
	}
	final := demand.New()
	final.Set(0, 7, 2)
	final.Set(1, 6, 1.5)
	epoch, err := e.submit(final)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if out, err := e.Wait(ctx, epoch); err != nil || !out.OK {
		t.Fatalf("final epoch: out=%+v err=%v", out, err)
	}
	control := captureState(e)

	// Crash: no snapshot, no checkpoint — the log is the only persistence.
	e.Close()
	log.Close()

	recovered, _, stats := coldWALEngine(t, walPath, cfg)
	if stats.Applied == 0 {
		t.Fatalf("replay applied nothing: %+v", stats)
	}
	waitActive(t, recovered)
	assertStateMatches(t, control, captureState(recovered))
	if v := recovered.metrics.walReplays.Value(); v != 1 {
		t.Fatalf("wal_replays=%d, want 1", v)
	}
}

// TestWALReplayDuplicateRecordsIdempotent: a log holding the same record
// twice (a crashed retry loop, a copied tail) must apply it once — replay
// skips duplicate sequence numbers.
func TestWALReplayDuplicateRecordsIdempotent(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "dup.wal")
	cfg := Config{Seed: 3}

	e, log, _ := coldWALEngine(t, walPath, cfg)
	d := demand.New()
	d.Set(0, 7, 2)
	if _, err := e.submit(d); err != nil {
		t.Fatal(err)
	}
	if _, err := e.FailEdges(2); err != nil {
		t.Fatal(err)
	}
	submitAndWait(t, e, d)
	control := captureState(e)
	e.Close()
	log.Close()

	// Duplicate every frame: the doctored log is every record twice, in
	// order.
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	records, good := wal.Scan(raw)
	if good != int64(len(raw)) || len(records) == 0 {
		t.Fatalf("clean log expected, got %d records, %d/%d bytes", len(records), good, len(raw))
	}
	var doctored []byte
	for _, r := range records {
		doctored = wal.AppendFrame(doctored, r)
		doctored = wal.AppendFrame(doctored, r)
	}
	if err := os.WriteFile(walPath, doctored, 0o644); err != nil {
		t.Fatal(err)
	}

	recovered, _, stats := coldWALEngine(t, walPath, cfg)
	if stats.Applied != len(records) || stats.Skipped != len(records) {
		t.Fatalf("applied=%d skipped=%d, want %d each", stats.Applied, stats.Skipped, len(records))
	}
	waitActive(t, recovered)
	assertStateMatches(t, control, captureState(recovered))
}

// TestWALReplaySkipsRecordsBeforeCheckpoint: link records at or below the
// snapshot's operation watermark are already baked into the restored
// capacity map and must be skipped, while demand records (a snapshot holds
// none) and records past the watermark still apply.
func TestWALReplaySkipsRecordsBeforeCheckpoint(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "wm.wal")
	cfg := Config{Seed: 9}

	e, log, _ := coldWALEngine(t, walPath, cfg)
	d1 := demand.New()
	d1.Set(0, 7, 1)
	if _, err := e.submit(d1); err != nil { // seq 1
		t.Fatal(err)
	}
	if _, err := e.FailEdges(4); err != nil { // seq 2
		t.Fatal(err)
	}
	// Snapshot WITHOUT checkpointing (no truncation): the log keeps both
	// pre-watermark records, exactly the shape of a crash mid-checkpoint
	// after the snapshot rename but before the truncate.
	var snap bytes.Buffer
	if err := e.writeSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	// Two post-watermark mutations.
	if _, err := e.setCapacity(7, 0.5); err != nil { // seq 3
		t.Fatal(err)
	}
	d2 := demand.New()
	d2.Set(0, 7, 3)
	d2.Set(3, 4, 1)
	submitAndWait(t, e, d2) // seq 4
	control := captureState(e)
	e.Close()
	log.Close()

	log2, rec, err := wal.Open(walPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log2.Close() })
	if len(rec.Records) != 4 {
		t.Fatalf("log holds %d records, want 4", len(rec.Records))
	}
	cfg.WAL = log2
	recovered, err := Restore(&snap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	recovered.coldOnly = true
	t.Cleanup(recovered.Close)
	stats, err := recovered.ReplayWAL(rec)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Applied != 3 || stats.Skipped != 1 {
		t.Fatalf("applied=%d skipped=%d, want 3 and 1 (watermark must cover the link record only)", stats.Applied, stats.Skipped)
	}
	waitActive(t, recovered)
	assertStateMatches(t, control, captureState(recovered))
}

// TestWALTornTailRecoversAndJournals: a torn final frame (the crash landed
// mid-write) is truncated at recovery, journaled as wal_truncated, and the
// engine serves the last fully durable state instead of refusing to start.
func TestWALTornTailRecoversAndJournals(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "torn.wal")
	cfg := Config{Seed: 5}

	e, log, _ := coldWALEngine(t, walPath, cfg)
	d := demand.New()
	d.Set(0, 7, 2)
	if _, err := e.submit(d); err != nil {
		t.Fatal(err)
	}
	if _, err := e.FailEdges(1); err != nil {
		t.Fatal(err)
	}
	submitAndWait(t, e, d)
	control := captureState(e)
	e.Close()
	log.Close()

	// Tear the tail: a frame header promising 64 payload bytes, then only 8.
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	var torn [16]byte
	binary.LittleEndian.PutUint32(torn[0:4], 64)
	if _, err := f.Write(torn[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recovered, _, stats := coldWALEngine(t, walPath, cfg)
	if !stats.Truncated {
		t.Fatalf("replay stats should report the torn tail: %+v", stats)
	}
	found := false
	for _, ev := range recovered.Events() {
		if ev.Type == obs.EventWALTruncated {
			found = true
		}
	}
	if !found {
		t.Fatal("no wal_truncated event journaled")
	}
	if v := recovered.metrics.walTruncations.Value(); v != 1 {
		t.Fatalf("wal_truncations=%d, want 1", v)
	}
	waitActive(t, recovered)
	assertStateMatches(t, control, captureState(recovered))
}

// TestWALRevokedOpsSkippedOnReplay: an operation logged and then shed by
// back-pressure was reported failed to the client; its compensating revoke
// record must keep replay from resurrecting it.
func TestWALRevokedOpsSkippedOnReplay(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "revoke.wal")
	cfg := Config{Seed: 13}

	e, log, _ := coldWALEngine(t, walPath, cfg)
	d := demand.New()
	d.Set(0, 7, 2)
	submitAndWait(t, e, d)
	control := captureState(e)
	e.Close()
	log.Close()

	// Doctor the log: append a submit an older engine "shed" (seq 2) plus
	// its revoke (seq 3) — the exact frames such an engine wrote.
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	shed, _ := json.Marshal(&walOp{Seq: 2, Op: walOpSubmit,
		Entries: []PairAmount{{U: 3, V: 4, Amount: 99}}})
	revoke, _ := json.Marshal(&walOp{Seq: 3, Op: walOpRevoke, Ref: 2})
	raw = wal.AppendFrame(raw, shed)
	raw = wal.AppendFrame(raw, revoke)
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	recovered, _, stats := coldWALEngine(t, walPath, cfg)
	if stats.LastSeq != 3 {
		t.Fatalf("last seq %d, want 3", stats.LastSeq)
	}
	waitActive(t, recovered)
	got := captureState(recovered)
	assertStateMatches(t, control, got)
	if got.demand.Get(3, 4) != 0 {
		t.Fatalf("revoked submit resurrected: %v", got.demand)
	}
}

// TestCheckpointEveryTruncatesAndRecovers: after CheckpointEvery logged
// operations the engine snapshots and truncates the log on its own; a crash
// after the checkpoint still recovers the full state from snapshot + the
// (short) log.
func TestCheckpointEveryTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "ckpt.wal")
	snapPath := filepath.Join(dir, "ckpt.snap")
	cfg := Config{Seed: 21,
		CheckpointEvery: 3, CheckpointPath: snapPath}

	e, log, _ := coldWALEngine(t, walPath, cfg)
	for i := 0; i < 4; i++ {
		d := demand.New()
		d.Set(0, 7, 1+float64(i))
		if _, err := e.submit(d); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	for e.metrics.checkpoints.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no automatic checkpoint after CheckpointEvery operations")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatalf("checkpoint wrote no snapshot: %v", err)
	}
	// The truncated log was re-seeded with the live matrix — it must hold
	// far fewer frames than the operations performed.
	if recs := countRecords(t, walPath, log); recs < 1 || recs > 2 {
		t.Fatalf("post-checkpoint log holds %d records, want the re-seeded demand (1, or 2 with one late op)", recs)
	}
	// One more op past the checkpoint, then crash.
	if _, err := e.setCapacity(2, 0.5); err != nil {
		t.Fatal(err)
	}
	dLast := demand.New()
	dLast.Set(0, 7, 4)
	submitAndWait(t, e, dLast)
	control := captureState(e)
	e.Close()
	log.Close()

	// Recovery = snapshot + short log.
	log2, rec, err := wal.Open(walPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log2.Close() })
	sf, err := os.Open(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	cfg.WAL = log2
	recovered, err := Restore(sf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	recovered.coldOnly = true
	t.Cleanup(recovered.Close)
	if _, err := recovered.ReplayWAL(rec); err != nil {
		t.Fatal(err)
	}
	waitActive(t, recovered)
	assertStateMatches(t, control, captureState(recovered))
}

// countRecords syncs nothing; it re-scans the log file on disk. The live
// log handle is passed only to make the data race with the checkpoint
// goroutine impossible: Size() serializes against an in-flight Reset.
func countRecords(t *testing.T, path string, log *wal.Log) int {
	t.Helper()
	_ = log.Size()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	records, _ := wal.Scan(raw)
	return len(records)
}

// TestSolverPanicDoesNotKillEngine: a panic inside a solve stage must be
// converted to a stage error (counted, journaled) and the epoch falls back to
// the last good routing; the engine keeps serving afterwards. The panic is
// induced by publishing a link state whose solver-facing path system is nil
// — the adapt stage then dereferences it and panics exactly where a buggy
// solver callback would.
func TestSolverPanicDoesNotKillEngine(t *testing.T) {
	e := testEngine(t, Config{Seed: 17})
	e.coldOnly = true
	d := demand.New()
	d.Set(0, 7, 2)
	epoch, err := e.submit(d)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if out, err := e.Wait(ctx, epoch); err != nil || !out.OK {
		t.Fatalf("baseline epoch: out=%+v err=%v", out, err)
	}

	// The same link state with no adaptive system: the solver panics on it.
	good := e.links.Load()
	e.links.Store(&linkState{version: good.version, capacity: good.capacity, failed: good.failed,
		failedIDs: good.failedIDs, degradedCaps: good.degradedCaps,
		installed: good.installed, serving: good.serving, hash: good.hash,
		uncovered: good.uncovered, atRisk: good.atRisk})

	epoch, err = e.submit(d)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Wait(ctx, epoch)
	if err != nil {
		t.Fatal(err)
	}
	// The epoch falls back, never crashing the worker.
	if out.OK || !out.Fallback {
		t.Fatalf("panicked epoch did not fall back: %+v", out)
	}
	if v := e.metrics.solvePanics.Value(); v < 1 {
		t.Fatalf("solve_panics=%d, want >= 1", v)
	}
	found := false
	for _, ev := range e.Events() {
		if ev.Type == obs.EventSolveFailure {
			if _, ok := ev.Detail["panic"]; ok {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no solve_failure event carrying the panic")
	}

	// Heal the link state: the engine serves normally again.
	e.links.Store(good)
	epoch, err = e.submit(d)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := e.Wait(ctx, epoch); err != nil || !out.OK {
		t.Fatalf("post-panic epoch: out=%+v err=%v", out, err)
	}

	// A panic outside any solve stage (here the load pass over a routing
	// that names an edge the graph does not have) reaches the worker
	// backstop: the epoch falls back once, journaled with stage "worker",
	// and the engine still serves.
	fallbacks := e.metrics.fallbacks.Value()
	e.adapt = func(context.Context, *core.PathSystem, *demand.Demand, *core.AdaptOptions) (flow.Routing, error) {
		bad := graph.Path{Src: 0, Dst: 7, EdgeIDs: []int{e.cfg.Graph.NumEdges()}}
		return flow.Routing{demand.MakePair(0, 7): {{Path: bad, Weight: 2}}}, nil
	}
	if epoch, err = e.submit(d); err != nil {
		t.Fatal(err)
	}
	if out, err := e.Wait(ctx, epoch); err != nil || !out.Fallback || !strings.Contains(out.Err, "solver panic") {
		t.Fatalf("epoch with a panicking load pass: out=%+v err=%v", out, err)
	}
	if got := e.metrics.fallbacks.Value(); got != fallbacks+1 {
		t.Fatalf("fallbacks=%d, want %d", got, fallbacks+1)
	}
	worker := false
	for _, ev := range e.Events() {
		worker = worker || ev.Type == obs.EventSolveFailure && ev.Detail["stage"] == "worker"
	}
	if !worker {
		t.Fatal("no solve_failure event from the worker backstop")
	}
	e.adapt = defaultAdapt
	if epoch, err = e.submit(d); err != nil {
		t.Fatal(err)
	}
	if out, err := e.Wait(ctx, epoch); err != nil || !out.OK {
		t.Fatalf("epoch after the backstop: out=%+v err=%v", out, err)
	}
}

// TestSnapshotFsyncFailureLeavesOldSnapshot: a failed fsync while writing a
// snapshot must surface as an error and leave the previous snapshot bytes
// untouched — the atomic-replace contract under injected I/O failure.
func TestSnapshotFsyncFailureLeavesOldSnapshot(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "sys.snap")
	e := testEngine(t, Config{Seed: 29})
	if _, err := e.SnapshotToFile(snapPath); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}

	// Inject: every fsync fails. The snapshot write must refuse to claim
	// durability it does not have.
	orig := fsyncFile
	fsyncFile = func(*os.File) error { return errors.New("injected fsync failure") }
	defer func() { fsyncFile = orig }()

	if _, err := e.SnapshotToFile(snapPath); err == nil {
		t.Fatal("snapshot with failing fsync reported success")
	}
	after, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatalf("old snapshot gone after failed write: %v", err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed snapshot write corrupted the previous snapshot")
	}

	fsyncFile = orig
	if _, err := e.SnapshotToFile(snapPath); err != nil {
		t.Fatalf("snapshot after seam restore: %v", err)
	}
}

// TestCheckpointTornBeforeResetKeepsDemand: a crash after a checkpoint
// renamed its snapshot into place and before it reset the log leaves the new
// snapshot beside the old log, whose every record the snapshot's watermark
// covers. The snapshot holds the link state but no demand, so Open must
// still fold the log's demand records and come back with the live demand,
// link state and hash.
func TestCheckpointTornBeforeResetKeepsDemand(t *testing.T) {
	dir := t.TempDir()
	walPath, snapPath := filepath.Join(dir, "sys.wal"), filepath.Join(dir, "sys.snap")
	e, log, _ := coldWALEngine(t, walPath, Config{Seed: 9})
	submitAndWait(t, e, pairDemand(PairAmount{U: 0, V: 7, Amount: 2}, PairAmount{U: 3, V: 4, Amount: 1}))
	if _, err := e.FailEdges(4); err != nil {
		t.Fatal(err)
	}
	mustPatch(t, e, []PairAmount{{U: 3, V: 4, Amount: 1.5}}, nil)
	waitIdle(t, e)
	control := captureState(e)

	// The torn checkpoint: the snapshot is in place, the log as it stood.
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SnapshotToFile(snapPath); err != nil {
		t.Fatal(err)
	}
	e.Close()
	log.Close()
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	o, err := Open(Files{Snapshot: snapPath, WAL: walPath}, Config{}, oblivious.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { o.WAL.Close() })
	t.Cleanup(o.Engine.Close)
	if !o.Restored {
		t.Fatal("Open did not restore the snapshot")
	}
	if got := o.Engine.LastSubmitted(); !sameDemand(got, control.demand) {
		t.Fatalf("reopened demand %v, want the live %v", got, control.demand)
	}
	waitActive(t, o.Engine)
	waitIdle(t, o.Engine)
	assertStateMatches(t, control, captureState(o.Engine))
}
