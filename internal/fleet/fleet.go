// Package fleet is the multi-topology sharding layer over internal/service:
// one process serving many independent routing engines, keyed by topology
// ID. This is the horizontal-scale story for the semi-oblivious serving
// loop — Kulfi-style traffic engineering runs one engine per network, so a
// fleet of networks becomes a shard map of engines behind one HTTP surface.
//
// The fleet owns three things an engine cannot own for itself:
//
//   - Lazy residency with LRU eviction. Engines are built on first use from
//     a per-topology spec (`<id>.topo.json`, sampled cold) or snapshot
//     (`<id>.snap`, restored warm), and at most MaxResident path systems
//     stay in memory. An evicted shard snapshots to disk first, so
//     reloading it reproduces the exact canonical path-system hash and link
//     state it had before eviction — per-pair path state is the memory
//     bottleneck (Compact Oblivious Routing motivates keeping only hot
//     shards resident), and the snapshot makes eviction lossless.
//
//   - A shared solver worker pool with per-shard fairness. Every resident
//     engine submits its epoch solves to its own par.FairQueue on one
//     par.FairPool; workers drain the queues round-robin, so one hot
//     tenant flooding demands cannot starve a sibling's epochs. Each engine
//     keeps at most one task on its queue: it solves only its latest
//     demand.
//
//   - Rolled-up observability. The health rollup aggregates per-shard ok/degraded/
//     closed into a fleet state machine; /metrics renders fleet-level
//     counters (resident shards, evictions, cold/warm start latency,
//     cross-shard queue depth) next to every resident shard's registry,
//     each shard's series under a topo label; Close drains by snapshotting
//     every resident shard.
package fleet

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sparseroute/internal/oblivious"
	"sparseroute/internal/obs"
	"sparseroute/internal/par"
	"sparseroute/internal/service"
	"sparseroute/internal/wal"
)

// Suffixes of the per-topology files a fleet directory holds. A shard may
// have either or both: the spec is the cold-start source, the snapshot (when
// present) wins and restores warm. Snapshots are (re)written on eviction and
// drain.
const (
	TopoSuffix     = ".topo.json"
	snapshotSuffix = ".snap"
	// walSuffix names the per-shard write-ahead log, sited next to the
	// snapshot it extends: `<id>.snap` is the checkpoint, `<id>.wal` the
	// operations accepted since. Replaying the log over the snapshot on
	// reload reconstructs the exact pre-crash demand matrix and link state.
	walSuffix = ".wal"
)

// journalDepth bounds the fleet-wide event journal, which every shard
// records into.
const journalDepth = 1024

// errUnknownShard is returned for a topology ID the fleet does not serve.
// The HTTP layer maps it to 404.
var errUnknownShard = errors.New("fleet: unknown topology")

// errClosed is returned once Close has begun. The HTTP layer maps it to 503.
var errClosed = errors.New("fleet: closed")

// Config parameterizes a Fleet.
type Config struct {
	// Dir is the topology directory: `<id>.topo.json` specs and `<id>.snap`
	// snapshots. Required.
	Dir string
	// DefaultShard is the topology ID legacy un-namespaced /v1/* routes
	// alias to, so single-topology deployments keep working against the
	// fleet surface. Empty with exactly one discovered shard aliases to it;
	// empty otherwise disables the alias (legacy routes 404).
	DefaultShard string
	// MaxResident bounds the engines (and their path systems) resident at
	// once; the least-recently-used shard is snapshotted and evicted to
	// make room. 0 or negative means unlimited.
	MaxResident int
	// Workers sizes the shared solver pool all shards draw on. Default
	// GOMAXPROCS.
	Workers int
	// DisableWAL turns off per-shard write-ahead logging. By default every
	// shard logs each accepted mutation to `<id>.wal` before applying it and
	// replays the log over the newest snapshot when it becomes resident, so
	// a hard kill between snapshots loses nothing a client was told
	// succeeded.
	DisableWAL bool
	// Engine is the per-shard engine template: RouterName, R, Seed,
	// SolveDeadline, CheckpointEvery (eviction and drain checkpoint either
	// way), and so on. Graph, Router, System, Pool, WAL and CheckpointPath
	// are managed by the fleet and overwritten per shard. An empty
	// RouterName means "raecke". Its MutationRate and MutationBurst are the per-tenant quota:
	// every shard's engine gets its own token bucket, so one flooding tenant
	// is shed with 429s at its own front door while the shared pool's
	// round-robin keeps solver time fair. Per-shard shed counts roll up in
	// the fleet's /metrics.
	Engine service.Config
	// Build tunes cold-start router construction (trees, k, dim). The
	// sampling seed defaults to Engine.Seed.
	Build oblivious.BuildOptions
}

// Fleet is the shard map. Construct with Open, serve with NewServer, stop
// with Close.
type Fleet struct {
	cfg     Config
	pool    *par.FairPool
	metrics *Metrics
	// journal is the fleet-wide event ring, shared with every resident
	// engine (entries tagged by topology ID): link/health/widening events
	// survive their shard's eviction, and residency transitions (reload,
	// eviction, drain) land in the same time-ordered stream.
	journal *obs.Journal

	// buildMu serializes residency transitions (cold starts, evictions,
	// drain), so the resident count is stable while room is being made.
	// Lock order: buildMu before mu before a shard's mu.
	buildMu sync.Mutex

	mu     sync.Mutex
	shards map[string]*shard
	clock  atomic.Uint64 // LRU tick, bumped on every shard touch
	closed bool
}

// shard is one topology's slot: its spec/snapshot paths plus the resident
// engine, when any. Requests hold mu.RLock while delegating to the engine,
// so eviction (mu.Lock) waits for in-flight requests instead of closing an
// engine under them.
type shard struct {
	id       string
	topoPath string // "" when only a snapshot exists
	snapPath string // eviction/drain target; restored from when present
	walPath  string // per-shard write-ahead log, replayed over the snapshot

	mu     sync.RWMutex
	engine *service.Engine
	server *service.Server
	wal    *wal.Log // engine's log handle; fleet closes it after the engine

	lastUsed atomic.Uint64 // fleet clock at last touch
}

// Open discovers the shards in cfg.Dir and starts the shared solver pool.
// No engine is built yet — construction is lazy, on each shard's first
// request.
func Open(cfg Config) (*Fleet, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("fleet: config needs a topology directory")
	}
	if cfg.Engine.RouterName == "" {
		cfg.Engine.RouterName = "raecke"
	}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("fleet: reading topology directory: %w", err)
	}
	shards := make(map[string]*shard)
	ensure := func(id string) *shard {
		sh := shards[id]
		if sh == nil {
			sh = &shard{
				id:       id,
				snapPath: filepath.Join(cfg.Dir, id+snapshotSuffix),
				walPath:  filepath.Join(cfg.Dir, id+walSuffix),
			}
			shards[id] = sh
		}
		return sh
	}
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		name := ent.Name()
		switch {
		case strings.HasSuffix(name, TopoSuffix):
			id := strings.TrimSuffix(name, TopoSuffix)
			if id == "" {
				continue
			}
			ensure(id).topoPath = filepath.Join(cfg.Dir, name)
		case strings.HasSuffix(name, snapshotSuffix):
			id := strings.TrimSuffix(name, snapshotSuffix)
			if id == "" {
				continue
			}
			ensure(id)
		}
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("fleet: no *%s or *%s files in %s", TopoSuffix, snapshotSuffix, cfg.Dir)
	}
	if cfg.DefaultShard == "" && len(shards) == 1 {
		for id := range shards {
			cfg.DefaultShard = id
		}
	}
	if cfg.DefaultShard != "" {
		if _, ok := shards[cfg.DefaultShard]; !ok {
			return nil, fmt.Errorf("fleet: default shard %q not in %s", cfg.DefaultShard, cfg.Dir)
		}
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	f := &Fleet{cfg: cfg, shards: shards, pool: par.NewFairPool(workers), journal: obs.NewJournal(journalDepth)}
	f.metrics = newMetrics(f)
	return f, nil
}

// Events returns the fleet-wide event journal, oldest first: every resident
// engine's link/capacity/health/widening/solve-failure events (tagged by
// topology ID) interleaved with the fleet's own residency transitions
// (reload, eviction, drain). The journal outlives evictions, so a
// post-incident read reconstructs a shard's whole history even after its
// engine left memory.
func (f *Fleet) Events() []obs.Event { return f.journal.Events() }

// ShardIDs returns the discovered topology IDs, sorted.
func (f *Fleet) ShardIDs() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	ids := make([]string, 0, len(f.shards))
	for id := range f.shards {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// DefaultShard returns the topology ID legacy /v1/* routes alias to, "" when
// the alias is disabled.
func (f *Fleet) DefaultShard() string { return f.cfg.DefaultShard }

// resident returns how many shards currently hold a live engine.
func (f *Fleet) resident() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.residentLocked()
}

func (f *Fleet) residentLocked() int {
	n := 0
	for _, sh := range f.shards {
		sh.mu.RLock()
		if sh.engine != nil {
			n++
		}
		sh.mu.RUnlock()
	}
	return n
}

// acquire resolves id to its shard, makes it resident (cold start or warm
// restore) if needed, and returns with the shard's read lock held — the
// caller must call release exactly once. Holding the read lock pins the
// engine against eviction for the duration of the request.
func (f *Fleet) acquire(id string) (sh *shard, release func(), err error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, nil, errClosed
	}
	sh = f.shards[id]
	f.mu.Unlock()
	if sh == nil {
		return nil, nil, fmt.Errorf("%w: %q", errUnknownShard, id)
	}
	sh.lastUsed.Store(f.clock.Add(1))
	for {
		sh.mu.RLock()
		if sh.engine != nil {
			return sh, sh.mu.RUnlock, nil
		}
		sh.mu.RUnlock()
		if err := f.makeResident(sh); err != nil {
			return nil, nil, err
		}
		// Loop: an eviction may race in between makeResident returning and
		// the read lock above; the next makeResident call is then a no-op
		// rebuild. Touch again so this shard is never its own victim.
		sh.lastUsed.Store(f.clock.Add(1))
	}
}

// Engine makes the shard resident and returns its engine, for callers
// outside the request path (tests, benchmarks). The engine may be evicted at
// any point after return; HTTP handlers use acquire instead.
func (f *Fleet) Engine(id string) (*service.Engine, error) {
	sh, release, err := f.acquire(id)
	if err != nil {
		return nil, err
	}
	defer release()
	return sh.engine, nil
}

// makeResident builds sh's engine under buildMu, evicting least-recently-
// used siblings first when the resident count is at MaxResident.
func (f *Fleet) makeResident(sh *shard) error {
	f.buildMu.Lock()
	defer f.buildMu.Unlock()
	f.mu.Lock()
	closed := f.closed
	f.mu.Unlock()
	if closed {
		return errClosed
	}
	sh.mu.RLock()
	resident := sh.engine != nil
	sh.mu.RUnlock()
	if resident {
		return nil // raced with another request's cold start
	}
	f.evictForRoom(sh)
	start := time.Now()
	opened, err := f.buildEngine(sh)
	if err != nil {
		return fmt.Errorf("fleet: shard %q: %w", sh.id, err)
	}
	buildTime := time.Since(start)
	f.metrics.observeBuild(buildTime, opened.Restored)
	kind := "cold"
	if opened.Restored {
		kind = "warm"
	}
	f.journal.RecordShard(sh.id, obs.EventReload, map[string]any{
		"start": kind, "build_ms": float64(buildTime) / float64(time.Millisecond),
	})
	server := service.NewServer(opened.Engine, sh.snapPath)
	sh.mu.Lock()
	sh.engine, sh.server, sh.wal = opened.Engine, server, opened.WAL
	sh.mu.Unlock()
	return nil
}

// evictForRoom evicts least-recently-used resident shards (never incoming)
// until a slot is free. A shard whose snapshot cannot be written is skipped
// — losing recovery paths or link state to make room is worse than running
// one shard over budget — so the loop always terminates.
func (f *Fleet) evictForRoom(incoming *shard) {
	max := f.cfg.MaxResident
	if max <= 0 {
		return
	}
	skipped := make(map[string]bool)
	for {
		var victim *shard
		f.mu.Lock()
		for _, sh := range f.shards {
			if sh == incoming || skipped[sh.id] {
				continue
			}
			sh.mu.RLock()
			live := sh.engine != nil
			sh.mu.RUnlock()
			if !live {
				continue
			}
			if victim == nil || sh.lastUsed.Load() < victim.lastUsed.Load() {
				victim = sh
			}
		}
		room := f.residentLocked() < max
		f.mu.Unlock()
		if room || victim == nil {
			return
		}
		if !f.evict(victim) {
			skipped[victim.id] = true
		}
	}
}

// evict snapshots sh to its snapshot file and closes its engine, reporting
// whether the shard was actually evicted. Callers hold buildMu. Taking the
// shard's write lock waits out in-flight requests, so no handler ever sees
// a closed engine. The snapshot is written before Close and carries the
// installed path system, failed edges, and capacity overrides — reloading
// reproduces the canonical hash and link state exactly.
func (f *Fleet) evict(sh *shard) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.engine == nil {
		return true
	}
	if _, err := sh.engine.SnapshotToFile(sh.snapPath); err != nil {
		f.metrics.evictErrors.Add(1)
		f.journal.RecordShard(sh.id, obs.EventEviction, map[string]any{
			"ok": false, "err": err.Error(),
		})
		return false
	}
	sh.engine.Close()
	if sh.wal != nil {
		// The snapshot checkpointed the log (truncation + demand re-seed),
		// so closing after the engine loses nothing; the next residency
		// reopens and replays it.
		sh.wal.Close()
	}
	sh.engine, sh.server, sh.wal = nil, nil, nil
	f.metrics.evictions.Add(1)
	f.journal.RecordShard(sh.id, obs.EventEviction, map[string]any{"ok": true})
	return true
}

// buildEngine constructs sh's engine through service.Open — restored from
// its snapshot when one exists (warm: the startup sample is read back, not
// resampled, and a degraded link state is derived from it, so the hash is
// the evicted engine's), else sampled from its topology spec (cold), with the
// shard's write-ahead log replayed over it either way — on a fresh FairQueue
// of the shared pool.
func (f *Fleet) buildEngine(sh *shard) (*service.Opened, error) {
	cfg := f.cfg.Engine
	queue := f.pool.Queue(1)
	cfg.Pool = queue
	cfg.Graph, cfg.Router, cfg.System, cfg.WAL = nil, nil, nil, nil
	cfg.CheckpointPath = sh.snapPath
	// Engines record into the fleet journal, tagged by topology ID, so the
	// event stream survives eviction and rolls up at GET /debug/events.
	cfg.Journal = f.journal
	cfg.JournalShard = sh.id

	files := service.Files{Snapshot: sh.snapPath, Topo: sh.topoPath}
	if !f.cfg.DisableWAL {
		files.WAL = sh.walPath
	}
	opened, err := service.Open(files, cfg, f.cfg.Build)
	if err != nil {
		queue.Close() // unregister the dead queue from the shared pool
	}
	return opened, err
}

// fleetHealth is the fleet rollup: per-shard status plus the aggregate state
// machine — "closed" once Close begins, "degraded" while any resident shard
// is degraded or closed, "ok" otherwise. Cold (non-resident) shards are
// listed but do not affect the aggregate.
type fleetHealth struct {
	Status   string        `json:"status"`
	Resident int           `json:"resident"`
	Shards   []shardHealth `json:"shards"`
}

// shardHealth is one shard's row in the fleet health rollup.
type shardHealth struct {
	ID       string `json:"id"`
	Resident bool   `json:"resident"`
	// Status is the engine's ok/degraded/closed, or "cold" when the shard
	// is not resident.
	Status string          `json:"status"`
	Engine *service.Health `json:"engine,omitempty"`
}

// shardCold is the status of a discovered shard with no resident engine.
const shardCold = "cold"

// health reports the fleet state machine.
func (f *Fleet) health() *fleetHealth {
	f.mu.Lock()
	closed := f.closed
	list := make([]*shard, 0, len(f.shards))
	for _, sh := range f.shards {
		list = append(list, sh)
	}
	f.mu.Unlock()
	sort.Slice(list, func(i, j int) bool { return list[i].id < list[j].id })

	out := &fleetHealth{Status: service.HealthOK}
	for _, sh := range list {
		// The read lock is held across the health call itself: releasing it
		// after loading the engine pointer would let eviction close the engine
		// mid-render and report a spurious "closed" row (or worse, tear the
		// snapshot the engine is writing out from under the scrape).
		sh.mu.RLock()
		row := shardHealth{ID: sh.id, Status: shardCold}
		if sh.engine != nil {
			h := sh.engine.Health()
			row.Resident = true
			row.Status = h.Status
			row.Engine = h
			out.Resident++
			if h.Status != service.HealthOK {
				out.Status = service.HealthDegraded
			}
		}
		sh.mu.RUnlock()
		out.Shards = append(out.Shards, row)
	}
	if closed {
		out.Status = service.HealthClosed
	}
	return out
}

// Close drains the fleet: every resident shard is snapshotted to its
// snapshot file and its engine closed (in-flight solves cancel promptly,
// accepted ones drain), then the shared pool stops. The first snapshot
// error is returned; draining continues past it. Safe to call more than
// once.
func (f *Fleet) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	list := make([]*shard, 0, len(f.shards))
	for _, sh := range f.shards {
		list = append(list, sh)
	}
	f.mu.Unlock()
	sort.Slice(list, func(i, j int) bool { return list[i].id < list[j].id })

	f.buildMu.Lock()
	defer f.buildMu.Unlock()
	var firstErr error
	for _, sh := range list {
		sh.mu.Lock()
		if sh.engine != nil {
			detail := map[string]any{"ok": true}
			if _, err := sh.engine.SnapshotToFile(sh.snapPath); err != nil {
				detail = map[string]any{"ok": false, "err": err.Error()}
				if firstErr == nil {
					firstErr = fmt.Errorf("fleet: draining shard %q: %w", sh.id, err)
				}
			}
			sh.engine.Close()
			if sh.wal != nil {
				sh.wal.Close()
			}
			sh.engine, sh.server, sh.wal = nil, nil, nil
			f.journal.RecordShard(sh.id, obs.EventDrain, detail)
		}
		sh.mu.Unlock()
	}
	f.pool.Close()
	return firstErr
}
