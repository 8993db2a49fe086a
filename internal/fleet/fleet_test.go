package fleet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sparseroute/internal/demand"
	"sparseroute/internal/graph"
	"sparseroute/internal/graph/gen"
	"sparseroute/internal/serial"
	"sparseroute/internal/service"
)

// writeTopo writes g as <id>.topo.json in dir.
func writeTopo(t *testing.T, dir, id string, g *graph.Graph) {
	t.Helper()
	fh, err := os.Create(filepath.Join(dir, id+TopoSuffix))
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	if err := serial.EncodeGraph(fh, g); err != nil {
		t.Fatal(err)
	}
}

// testFleet opens a fleet over fresh hypercube specs for the given IDs.
func testFleet(t *testing.T, ids []string, mut func(*Config)) *Fleet {
	t.Helper()
	dir := t.TempDir()
	for _, id := range ids {
		writeTopo(t, dir, id, gen.Hypercube(3))
	}
	cfg := Config{
		Dir:    dir,
		Engine: service.Config{RouterName: "valiant", R: 2, Seed: 11},
	}
	if mut != nil {
		mut(&cfg)
	}
	f, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// solveOn pushes one demand epoch through the shard's engine and waits for it.
func solveOn(t *testing.T, f *Fleet, id string) {
	t.Helper()
	e, err := f.Engine(id)
	if err != nil {
		t.Fatal(err)
	}
	d := demand.New()
	d.Set(0, 7, 1)
	epoch, err := e.SubmitDemandCtx(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := ctxWithTimeout(t)
	defer cancel()
	out, err := e.Wait(ctx, epoch)
	if err != nil || !out.OK {
		t.Fatalf("shard %s epoch %d: %v %+v", id, epoch, err, out)
	}
}

// brownout sets the capacity multiplier of one of a shard's edges through
// the shard's HTTP surface, as an operator does: POST /v1/t/{id}/links.
func brownout(t *testing.T, f *Fleet, id string, edge int, capacity float64) {
	t.Helper()
	body := fmt.Sprintf(`{"edge":%d,"capacity":%v}`, edge, capacity)
	rec := httptest.NewRecorder()
	NewServer(f).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/t/"+id+"/links", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("brownout of edge %d on %s: %d %s", edge, id, rec.Code, rec.Body)
	}
}

func TestFleetOpenDiscoversShards(t *testing.T) {
	f := testFleet(t, []string{"b", "a", "c"}, nil)
	ids := f.ShardIDs()
	if len(ids) != 3 || ids[0] != "a" || ids[1] != "b" || ids[2] != "c" {
		t.Fatalf("shard ids %v", ids)
	}
	if f.resident() != 0 {
		t.Fatalf("engines built eagerly: %d resident", f.resident())
	}
	// Multiple shards and no explicit default: the legacy alias is off.
	if f.DefaultShard() != "" {
		t.Fatalf("default shard %q, want none", f.DefaultShard())
	}
}

func TestFleetSingleShardAutoDefault(t *testing.T) {
	f := testFleet(t, []string{"solo"}, nil)
	if f.DefaultShard() != "solo" {
		t.Fatalf("default %q, want solo", f.DefaultShard())
	}
}

func TestFleetUnknownShard(t *testing.T) {
	f := testFleet(t, []string{"a"}, nil)
	if _, err := f.Engine("nope"); err == nil {
		t.Fatal("unknown shard built an engine")
	}
}

func TestFleetLazyResidencyAndLRUEviction(t *testing.T) {
	f := testFleet(t, []string{"a", "b", "c"}, func(c *Config) { c.MaxResident = 2 })

	solveOn(t, f, "a")
	solveOn(t, f, "b")
	if n := f.resident(); n != 2 {
		t.Fatalf("resident %d, want 2", n)
	}

	// Touching c must evict a (least recently used), snapshotting it first.
	solveOn(t, f, "c")
	if n := f.resident(); n != 2 {
		t.Fatalf("resident %d after third shard, want 2", n)
	}
	f.mu.Lock()
	sa := f.shards["a"]
	f.mu.Unlock()
	sa.mu.RLock()
	aLive := sa.engine != nil
	sa.mu.RUnlock()
	if aLive {
		t.Fatal("least-recently-used shard a still resident")
	}
	if _, err := os.Stat(sa.snapPath); err != nil {
		t.Fatalf("evicted shard left no snapshot: %v", err)
	}
	if got := f.metrics.evictions.Value(); got != 1 {
		t.Fatalf("evictions %d, want 1", got)
	}

	// Reloading a is a warm start from its snapshot.
	solveOn(t, f, "a")
	if got := f.metrics.warmStarts.Value(); got != 1 {
		t.Fatalf("warm starts %d, want 1", got)
	}
	if got := f.metrics.coldStarts.Value(); got != 3 {
		t.Fatalf("cold starts %d, want 3", got)
	}
}

// TestFleetEvictReloadRoundTrip is the fidelity drill: a shard degraded by a
// link failure AND browned-out by a capacity override, serving live demand,
// is evicted and reloaded — the restored engine must reproduce the exact
// canonical path-system hash and link state it had before eviction.
func TestFleetEvictReloadRoundTrip(t *testing.T) {
	f := testFleet(t, []string{"a", "b"}, func(c *Config) { c.MaxResident = 1 })

	solveOn(t, f, "a")
	ea, err := f.Engine("a")
	if err != nil {
		t.Fatal(err)
	}

	// Degrade: fail one edge the active routing uses, brown-out another.
	g := gen.Hypercube(3)
	failID := g.Incident(0)[0]
	brownID := g.Incident(7)[0]
	if _, err := ea.FailEdges(failID); err != nil {
		t.Fatal(err)
	}
	brownout(t, f, "a", brownID, 0.5)
	// Keep solving under the degraded state so the snapshot is taken mid-load.
	solveOn(t, f, "a")

	before := ea.Health()
	hashBefore := ea.Hash()
	if before.Status != service.HealthDegraded {
		t.Fatalf("link state %+v not degraded", before)
	}

	// Touch b: with MaxResident 1 this evicts a, snapshotting it first.
	solveOn(t, f, "b")
	f.mu.Lock()
	sa := f.shards["a"]
	f.mu.Unlock()
	sa.mu.RLock()
	aLive := sa.engine != nil
	sa.mu.RUnlock()
	if aLive {
		t.Fatal("shard a still resident after b displaced it")
	}

	// Reload a: warm start from the degraded snapshot.
	ea2, err := f.Engine("a")
	if err != nil {
		t.Fatal(err)
	}
	if got := ea2.Hash(); got != hashBefore {
		t.Fatalf("reloaded hash %016x, want pre-eviction %016x", got, hashBefore)
	}
	after := ea2.Health()
	if len(after.FailedEdges) != 1 || after.FailedEdges[0] != failID {
		t.Fatalf("reloaded failed edges %v, want [%d]", after.FailedEdges, failID)
	}
	if len(after.DegradedEdges) != 1 || after.DegradedEdges[0].Edge != brownID ||
		after.DegradedEdges[0].Capacity != 0.5 {
		t.Fatalf("reloaded capacity overrides %+v, want edge %d at 0.5", after.DegradedEdges, brownID)
	}
	if after.UncoveredPairs != before.UncoveredPairs {
		t.Fatalf("uncovered pairs %d, want %d", after.UncoveredPairs, before.UncoveredPairs)
	}
	// The reloaded shard still serves: a fresh epoch solves on the shared pool.
	solveOn(t, f, "a")
	if h := ea2.Health(); h.Status != service.HealthDegraded {
		t.Fatalf("reloaded health %+v, want degraded", h)
	}
}

// TestFleetCorrelatedFailureDrill fails a shared-risk link group — two edges
// riding one conduit — in a single FailEdges event on one shard, and
// checks (a) the surviving group keeps every pair covered, and (b) sibling
// shards are completely unaffected: same hash, link version still 1, ok.
func TestFleetCorrelatedFailureDrill(t *testing.T) {
	f := testFleet(t, []string{"east", "west"}, nil)
	solveOn(t, f, "east")
	solveOn(t, f, "west")

	west, err := f.Engine("west")
	if err != nil {
		t.Fatal(err)
	}
	westHash := west.Hash()

	// The SRLG: two of vertex 0's three edges share a conduit.
	g := gen.Hypercube(3)
	group := []int{g.Incident(0)[0], g.Incident(0)[1]}

	east, err := f.Engine("east")
	if err != nil {
		t.Fatal(err)
	}
	update, err := east.FailEdges(group...)
	if err != nil {
		t.Fatal(err)
	}
	if update.Version != 2 {
		t.Fatalf("group failure applied as %d events, want one (version 2)", update.Version)
	}
	if len(update.FailedEdges) != 2 {
		t.Fatalf("failed edges %v, want the group %v", update.FailedEdges, group)
	}
	// The survivor hypercube is still connected: recovery/proactive passes
	// must leave no pair uncovered.
	if update.UncoveredPairs != 0 {
		t.Fatalf("%d pairs uncovered after SRLG failure", update.UncoveredPairs)
	}
	if h := east.Health(); h.Status != service.HealthDegraded {
		t.Fatalf("east health %+v, want degraded", h)
	}

	// The sibling shard is untouched: no event, no hash movement, still ok.
	if got := west.Hash(); got != westHash {
		t.Fatalf("west hash moved %016x -> %016x on east's failure", westHash, got)
	}
	if l := west.Health(); l.LinkVersion != 1 || len(l.FailedEdges) != 0 {
		t.Fatalf("west link state %+v leaked east's event", l)
	}
	if h := west.Health(); h.Status != service.HealthOK {
		t.Fatalf("west health %+v, want ok", h)
	}

	// Fleet rollup degrades while east is impaired.
	if h := f.health(); h.Status != service.HealthDegraded {
		t.Fatalf("fleet health %q, want degraded", h.Status)
	}

	// Restoring the group clears the rollup.
	if _, err := east.RestoreEdges(group...); err != nil {
		t.Fatal(err)
	}
	if h := f.health(); h.Status != service.HealthOK {
		t.Fatalf("fleet health %q after restore, want ok", h.Status)
	}
}

func TestFleetHealthRollup(t *testing.T) {
	f := testFleet(t, []string{"a", "b", "c"}, nil)
	solveOn(t, f, "a")
	solveOn(t, f, "b")

	ea, err := f.Engine("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ea.FailEdges(gen.Hypercube(3).Incident(0)[0]); err != nil {
		t.Fatal(err)
	}

	h := f.health()
	if h.Status != service.HealthDegraded || h.Resident != 2 {
		t.Fatalf("rollup %+v", h)
	}
	want := map[string]string{"a": service.HealthDegraded, "b": service.HealthOK, "c": shardCold}
	for _, row := range h.Shards {
		if row.Status != want[row.ID] {
			t.Fatalf("shard %s status %q, want %q", row.ID, row.Status, want[row.ID])
		}
		if (row.Status == shardCold) == row.Resident {
			t.Fatalf("shard %s residency %v inconsistent with status %q", row.ID, row.Resident, row.Status)
		}
	}
}

// TestFleetCloseDrainsAllResident: Close must snapshot every resident shard,
// and a fleet reopened over the same directory restores each with an
// identical hash.
func TestFleetCloseDrainsAllResident(t *testing.T) {
	dir := t.TempDir()
	for _, id := range []string{"a", "b"} {
		writeTopo(t, dir, id, gen.Hypercube(3))
	}
	cfg := Config{Dir: dir, Engine: service.Config{RouterName: "valiant", R: 2, Seed: 11}}
	f, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hashes := map[string]uint64{}
	for _, id := range []string{"a", "b"} {
		solveOn(t, f, id)
		e, err := f.Engine(id)
		if err != nil {
			t.Fatal(err)
		}
		hashes[id] = e.Hash()
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if h := f.health(); h.Status != service.HealthClosed {
		t.Fatalf("health %q after close", h.Status)
	}
	if _, err := f.Engine("a"); err == nil {
		t.Fatal("closed fleet built an engine")
	}

	f2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	for id, want := range hashes {
		if _, err := os.Stat(filepath.Join(dir, id+snapshotSuffix)); err != nil {
			t.Fatalf("drain left no snapshot for %s: %v", id, err)
		}
		e, err := f2.Engine(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Hash(); got != want {
			t.Fatalf("shard %s restored hash %016x, want drained %016x", id, got, want)
		}
	}
	if f2.metrics.warmStarts.Value() != 2 {
		t.Fatalf("reopened fleet warm starts %d, want 2", f2.metrics.warmStarts.Value())
	}
}

// TestFleetSnapshotOnlyShard: a shard with a snapshot and no topology spec
// still loads (warm).
func TestFleetSnapshotOnlyShard(t *testing.T) {
	dir := t.TempDir()
	writeTopo(t, dir, "a", gen.Hypercube(3))
	cfg := Config{Dir: dir, Engine: service.Config{RouterName: "valiant", R: 2, Seed: 11}}
	f, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	solveOn(t, f, "a")
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Drop the spec; only a.snap remains.
	if err := os.Remove(filepath.Join(dir, "a"+TopoSuffix)); err != nil {
		t.Fatal(err)
	}
	f2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if ids := f2.ShardIDs(); len(ids) != 1 || ids[0] != "a" {
		t.Fatalf("snapshot-only discovery %v", ids)
	}
	solveOn(t, f2, "a")
}

// TestFleetConcurrentCrossShard churns demands, reads, link events, and
// LRU evictions across three shards at once — the race-detector workout for
// the shard map, the shared pool, and the residency locks.
func TestFleetConcurrentCrossShard(t *testing.T) {
	f := testFleet(t, []string{"a", "b", "c"}, func(c *Config) {
		c.MaxResident = 2
		c.Workers = 2
	})
	ids := []string{"a", "b", "c"}

	done := make(chan error, 6)
	for w := 0; w < 6; w++ {
		go func(w int) {
			var err error
			defer func() { done <- err }()
			for i := 0; i < 12; i++ {
				id := ids[(w+i)%len(ids)]
				e, aerr := f.Engine(id)
				if aerr != nil {
					err = aerr
					return
				}
				switch w % 3 {
				case 0: // writer: demand epochs
					d := demand.New()
					d.Set(0, 7, 1+float64(i))
					// errClosed is fine mid-churn: the engine may be evicted
					// between acquire and submit.
					e.SubmitDemandCtx(context.Background(), d)
				case 1: // reader: health (with its link fields) and metrics
					e.Health()
					f.health()
					f.Metrics().prom().WriteTo(io.Discard)
				case 2: // link events on one shard only
					if id == "a" {
						e.FailEdges(0)
						e.RestoreEdges(0)
					} else {
						e.Health()
					}
				}
			}
		}(w)
	}
	for w := 0; w < 6; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if n := f.resident(); n > 2 {
		t.Fatalf("resident %d breached MaxResident 2", n)
	}
	// The fleet still serves after the churn.
	for _, id := range ids {
		solveOn(t, f, id)
	}
}

func TestFleetDefaultShardValidated(t *testing.T) {
	dir := t.TempDir()
	writeTopo(t, dir, "a", gen.Hypercube(3))
	_, err := Open(Config{
		Dir:          dir,
		DefaultShard: "missing",
		Engine:       service.Config{RouterName: "valiant", R: 2},
	})
	if err == nil {
		t.Fatal("bogus default shard accepted")
	}
}

// ctxWithTimeout returns a generous context for waiting on epochs.
func ctxWithTimeout(t *testing.T) (context.Context, context.CancelFunc) {
	t.Helper()
	return context.WithTimeout(context.Background(), 30*time.Second)
}

// TestFleetWALCrashRecovery: a fleet abandoned without Close (the process
// was killed) leaves no snapshot — only each shard's write-ahead log. A new
// fleet over the same directory must rebuild the shard cold and replay the
// log into the exact pre-crash demand matrix, link state, and path-system
// hash.
func TestFleetWALCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	writeTopo(t, dir, "a", gen.Hypercube(3))
	cfg := Config{
		Dir:    dir,
		Engine: service.Config{RouterName: "valiant", R: 2, Seed: 11},
	}
	f1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := f1.Engine("a")
	if err != nil {
		t.Fatal(err)
	}
	d := demand.New()
	d.Set(0, 7, 2)
	d.Set(1, 6, 1)
	if _, err := e1.SubmitDemandCtx(context.Background(), d); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.FailEdges(3); err != nil {
		t.Fatal(err)
	}
	brownout(t, f1, "a", 5, 0.5)
	epoch, err := e1.SubmitDemandCtx(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := ctxWithTimeout(t)
	defer cancel()
	if out, err := e1.Wait(ctx, epoch); err != nil || !out.OK {
		t.Fatalf("control epoch: %v %+v", err, out)
	}
	wantHash := e1.Hash()
	wantDemand := e1.LastSubmitted()
	wantLinks := e1.Health()
	if fi, err := os.Stat(filepath.Join(dir, "a"+walSuffix)); err != nil || fi.Size() == 0 {
		t.Fatalf("no per-shard wal written: %v", err)
	}

	// Crash: f1 is abandoned — no Close, no eviction, no snapshot.
	f2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := f2.Engine("a")
	if err != nil {
		t.Fatal(err)
	}
	if got := e2.Hash(); got != wantHash {
		t.Fatalf("recovered hash %016x != control %016x", got, wantHash)
	}
	if !demand.Equal(e2.LastSubmitted(), wantDemand, 1e-12) {
		t.Fatalf("recovered demand %v != control %v", e2.LastSubmitted(), wantDemand)
	}
	gotLinks := e2.Health()
	if gotLinks.LinkVersion != wantLinks.LinkVersion {
		t.Fatalf("recovered link version %d != control %d", gotLinks.LinkVersion, wantLinks.LinkVersion)
	}
	if len(gotLinks.FailedEdges) != 1 || gotLinks.FailedEdges[0] != 3 {
		t.Fatalf("recovered failed edges %v, want [3]", gotLinks.FailedEdges)
	}
	if len(gotLinks.DegradedEdges) != 1 || gotLinks.DegradedEdges[0].Edge != 5 ||
		gotLinks.DegradedEdges[0].Capacity != 0.5 {
		t.Fatalf("recovered degraded edges %v, want edge 5 @ 0.5", gotLinks.DegradedEdges)
	}
	// The recovered shard keeps serving.
	solveOn(t, f2, "a")
	f2.Close()
	f1.Close()
}

// TestFleetEvictionCheckpointsWAL: eviction snapshots the shard and
// checkpoints its log, so the reloaded shard replays only operations since
// the eviction — and still lands on the identical state.
func TestFleetEvictionCheckpointsWAL(t *testing.T) {
	f := testFleet(t, []string{"a", "b"}, func(c *Config) {
		c.MaxResident = 1
	})
	e, err := f.Engine("a")
	if err != nil {
		t.Fatal(err)
	}
	d := demand.New()
	d.Set(0, 7, 2)
	if _, err := e.SubmitDemandCtx(context.Background(), d); err != nil {
		t.Fatal(err)
	}
	if _, err := e.FailEdges(2); err != nil {
		t.Fatal(err)
	}
	wantHash := e.Hash()

	// Touch b: a is evicted (snapshot + checkpoint), its wal truncated down
	// to the re-seeded demand record.
	if _, err := f.Engine("b"); err != nil {
		t.Fatal(err)
	}

	// Reload a: warm restore + replay of the post-checkpoint log.
	e2, err := f.Engine("a")
	if err != nil {
		t.Fatal(err)
	}
	if got := e2.Hash(); got != wantHash {
		t.Fatalf("reloaded hash %016x != pre-eviction %016x", got, wantHash)
	}
	if !demand.Equal(e2.LastSubmitted(), d, 1e-12) {
		t.Fatalf("reloaded demand %v, want %v", e2.LastSubmitted(), d)
	}
	if got := e2.Health(); len(got.FailedEdges) != 1 || got.FailedEdges[0] != 2 {
		t.Fatalf("reloaded failed edges %v, want [2]", got.FailedEdges)
	}
	solveOn(t, f, "a")
}
