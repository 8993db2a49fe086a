package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sparseroute/internal/core"
	"sparseroute/internal/demand"
	"sparseroute/internal/flow"
	"sparseroute/internal/graph"
	"sparseroute/internal/oblivious"
	"sparseroute/internal/obs"
	"sparseroute/internal/par"
	"sparseroute/internal/serial"
)

// State is one published epoch: an adapted routing and its provenance. It is
// immutable once published; readers load it through an atomic pointer and
// never take a lock.
type State struct {
	// Epoch is the submission sequence number (1-based). Topology events
	// consume epochs too: the interim renormalized routing published right
	// after a link event and the full re-adapt that follows each get one.
	Epoch uint64
	// Demand is the matrix this routing adapts to (restricted to covered
	// pairs when the link state leaves some demand unservable).
	Demand *demand.Demand
	// Routing is the adapted min-congestion routing over the candidates.
	Routing flow.Routing
	// Congestion is Routing's maximum relative edge congestion.
	Congestion float64
	// EdgeLoads is Routing's absolute load per edge ID on the effective
	// (capacity-scaled) graph the epoch solved against — the background the
	// next delta epoch subtracts from instead of re-walking every path.
	EdgeLoads []float64
	// LinkVersion is the link-state version the epoch solved under. A delta
	// solve on top of it is only valid while the next epoch sees the same
	// version: any link event changes the candidate set or the capacity
	// denominators, so the frozen placements would be stale.
	LinkVersion uint64
	// Anchor is the demand matrix of the last cold-solved epoch in this
	// state's delta chain (nil on an interim renormalized state, which no
	// delta builds on). Delta epochs keep pairs they did not touch frozen
	// at the placements of earlier solves, so their quality decays with the
	// CUMULATIVE drift since the last fresh solve, not the per-epoch drift;
	// warmMaxDrift is enforced against this anchor, and a cold solve resets
	// it.
	Anchor *demand.Demand
	// Streak counts the consecutive delta epochs since the anchor's cold
	// solve. Each delta step re-places its touched pairs greedily against a
	// frozen background, so chain error can grow with length even when net
	// drift cancels; warmMaxStreak caps it.
	Streak int
	// Renormalized marks a state published by the no-solver renormalization
	// path — the interim serve right after a link event. Such a routing is an
	// emergency redistribution, not an optimum; the next epoch must not build
	// a delta on it (that would freeze the emergency placements), so it
	// always solves cold.
	Renormalized bool
	// SolvedAt is when the solve finished.
	SolvedAt time.Time

	// reply is this epoch's GET /v1/routing response. publish starts its
	// encoding in a goroutine the moment s is installed, so a reader almost
	// always finds it ready; a reader that arrives first waits on once, and
	// every reader shares the one encoding. ready is set once body, etag and
	// err are final. See routingReply.
	reply struct {
		once  sync.Once
		ready atomic.Bool
		body  []byte
		etag  string
		err   error
	}
}

// Outcome reports how one submitted epoch ended. Fallback epochs leave the
// previously published routing serving. An epoch superseded before it was
// solved shares the outcome of the epoch that covered it (Epoch names that
// one).
type Outcome struct {
	Epoch      uint64
	OK         bool
	Fallback   bool // the solve failed; the stale routing keeps serving
	Err        string
	Congestion float64
	Latency    time.Duration
	// Retries counts solve attempts beyond the first: 1 when a delta solve
	// fell through to the cold solve, 0 otherwise.
	Retries int
	// Renormalized marks the interim publish after a link event: the
	// previous routing renormalized over surviving paths instead of a fresh
	// solve.
	Renormalized bool
	// DroppedPairs counts demand pairs excluded from this epoch because the
	// current link state leaves them with no candidate paths.
	DroppedPairs int
	// Warm tags the solve that produced the epoch's routing: "delta"
	// (incremental touched-pair solve) or "cold" (from scratch, including
	// after a delta that fell through). A fallback epoch whose cold solve
	// failed is tagged "cold" too. Empty when no solve ran: interim
	// link-event publishes, epochs that failed before solving, and a delta
	// canceled mid-solve.
	Warm string
	// TouchedPairs counts the pairs a delta epoch re-solved (0 otherwise).
	TouchedPairs int
}

// Health is the engine's liveness/readiness report: a three-state machine
// (ok / degraded / closed) with the link-failure detail an operator needs to
// act on a degraded signal.
type Health struct {
	// Status is "ok", "degraded" (at least one failed edge; still serving),
	// or "closed" (after Close; HTTP maps it to 503).
	Status string `json:"status"`
	// Epoch is the active epoch (0 before the first solve).
	Epoch uint64 `json:"epoch"`
	// LinkVersion counts applied topology events.
	LinkVersion uint64 `json:"link_version"`
	// FailedEdges is the failed (zero-capacity) edge-ID set, sorted.
	FailedEdges []int `json:"failed_edges"`
	// DegradedEdges lists edges serving at reduced capacity — multiplier in
	// (0,1), distinct from failed — sorted by edge ID.
	DegradedEdges []EdgeCapacity `json:"degraded_edges,omitempty"`
	// UncoveredPairs counts installed pairs with zero surviving candidates.
	UncoveredPairs int `json:"uncovered_pairs"`
	// AtRiskPairs counts pairs down to a single surviving candidate (one
	// more failure disconnects them; proactive recovery could not widen
	// them).
	AtRiskPairs int `json:"at_risk_pairs,omitempty"`
	// DegradedSeconds is cumulative wall time spent degraded.
	DegradedSeconds float64 `json:"degraded_seconds"`
	// LastOutcome reports the newest epoch that has finished, if any —
	// surfacing fallback status that a bare "ok" used to hide. An older
	// epoch that finishes later (a link event's interim renormalization
	// can finish after its own re-adapt) does not replace it.
	LastOutcome *Outcome `json:"last_outcome,omitempty"`
}

const (
	HealthOK       = "ok"
	HealthDegraded = "degraded"
	HealthClosed   = "closed"
)

// adaptFunc is the solver invocation seam of the cold solve: production
// engines call PathSystem.AdaptCtx; tests substitute failing or recording
// solvers to exercise the fallback and the pool's fairness.
type adaptFunc func(ctx context.Context, ps *core.PathSystem, d *demand.Demand, opt *core.AdaptOptions) (flow.Routing, error)

func defaultAdapt(ctx context.Context, ps *core.PathSystem, d *demand.Demand, opt *core.AdaptOptions) (flow.Routing, error) {
	return ps.AdaptCtx(ctx, d, opt)
}

// Engine is the online routing engine. Construct with New, serve with
// methods or the HTTP layer in this package, stop with Close.
type Engine struct {
	cfg     Config
	metrics *Metrics
	// pool runs the engine's one drain task (see putLocked): a private
	// one-worker par.Pool by default, or the shared fleet queue handed in via
	// Config.Pool. Close closes it either way — for a shared par.FairQueue
	// that drains only this engine's task.
	pool  par.Submitter
	adapt adaptFunc
	// coldOnly makes every epoch solve cold, never as a delta: a test seam
	// for twin engines that compare delta epochs with cold ones.
	coldOnly bool

	// tracer retains recent epoch lifecycle traces; journal records the
	// engine's state-changing events (link/capacity/health/widening/solve
	// failures), tagged with shard when the journal is fleet-shared.
	tracer  *obs.Tracer
	journal *obs.Journal
	shard   string

	// Overload protection (see admission.go): the mutation token bucket gates
	// every demand mutation before it is logged or applied; inflight bounds
	// the request-body bytes the HTTP layer decodes concurrently.
	limiter  *rateLimiter
	inflight byteBudget

	// original is the startup path system (sampled, or read back from a
	// snapshot), immutable, and originalHash its hash memo, shared by every
	// link state that installs it. Every link state is derived from it (see
	// deriveLinks), and snapshots store it.
	original     *core.PathSystem
	originalHash *pathHash
	// pairs is the installed pair set, sorted once: recovery and widening
	// add paths to existing pairs only, so it never changes.
	pairs []demand.Pair
	// build holds the router options Open sampled the startup system with;
	// survivor routers reuse them (with cfg.Seed). Zero — the defaults — for
	// engines made with New directly.
	build oblivious.BuildOptions

	active atomic.Pointer[State]
	// links is the current link state: failed-edge set, pruned serving
	// system, recovery paths, hash. Readers are lock-free; writers hold mu
	// (see links.go).
	links atomic.Pointer[linkState]

	// rootCtx parents every epoch solve; stop cancels it so Close aborts
	// in-flight solves instead of waiting for them to run to completion.
	rootCtx context.Context
	stop    context.CancelFunc

	// opSeq is the engine-wide operation sequence number, monotonic across
	// restarts (resumed from the snapshot watermark plus replayed records).
	opSeq         atomic.Uint64
	walOpsSince   atomic.Int64 // ops logged since the last checkpoint
	checkpointing atomic.Bool  // single-flights async checkpoints

	// mu is the engine's one writer lock. Every record — demand or link — is
	// stepped, sequenced, appended to the WAL and applied under it, so the
	// log's order is the order the live state took (see logLocked). It also
	// guards the epoch bookkeeping below.
	mu        sync.Mutex
	nextEpoch uint64
	outcomes  map[uint64]*Outcome
	order     []uint64            // outcome eviction, oldest first
	pending   map[uint64]struct{} // accepted epochs whose outcome is not in yet
	waiters   map[uint64][]chan *Outcome
	// lastOutcome is published by finish and read lock-free by Health, so
	// /healthz never waits out a demand accept's WAL sync under mu.
	lastOutcome atomic.Pointer[Outcome]
	// lastSubmitted is the most recently accepted full demand matrix with
	// any accepted patches applied — the base PATCH deltas merge into.
	lastSubmitted *demand.Demand
	// closed is written under mu, so a mutation holding mu sees it stable,
	// and read lock-free by Health.
	closed atomic.Bool
	// slot is the epoch mailbox: the latest accepted request not yet picked
	// up by the solver, nil when none waits. draining is set while the drain
	// task is queued or running, and is always set while slot is non-nil.
	slot     *epochRequest
	draining bool
}

// epochRequest is one accepted epoch's work item: the full matrix to serve
// and, for PATCH delta epochs, the pairs that changed since the matrix the
// solver last picked up (nil means a full solve). covers lists the earlier
// epochs this request superseded in the slot; they resolve to its outcome.
type epochRequest struct {
	d       *demand.Demand
	touched []demand.Pair
	epoch   uint64
	covers  []uint64
	queued  time.Time
}

// New builds an engine: it samples the path system (offline phase) unless
// cfg.System already carries one, then starts the solver worker. The engine
// starts healthy, at link version 1.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if cfg.Graph == nil {
		return nil, fmt.Errorf("service: config needs a graph")
	}
	system := cfg.System
	if system == nil {
		var err error
		if system, err = startupSample(cfg); err != nil {
			return nil, err
		}
	} else if system.Graph() != cfg.Graph {
		return nil, fmt.Errorf("service: restored system is over a different graph")
	}
	e := &Engine{
		cfg:      cfg,
		adapt:    defaultAdapt,
		original: system,
		outcomes: make(map[uint64]*Outcome),
		pending:  make(map[uint64]struct{}),
		waiters:  make(map[uint64][]chan *Outcome),
		tracer:   obs.NewTracer(cfg.TraceDepth, cfg.SlowSolveThreshold, nil),
		journal:  cfg.Journal,
		shard:    cfg.JournalShard,
	}
	if e.journal == nil {
		e.journal = obs.NewJournal(journalDepth)
	}
	e.pairs = system.Pairs()
	e.originalHash = new(pathHash)
	e.links.Store(e.deriveLinks(1, map[int]float64{}).next)
	e.rootCtx, e.stop = context.WithCancel(context.Background())
	e.limiter = newRateLimiter(cfg.MutationRate, cfg.MutationBurst)
	e.inflight = byteBudget{max: cfg.MaxInflightBytes}
	e.metrics = newMetrics(e)
	if cfg.Pool != nil {
		e.pool = cfg.Pool
	} else {
		e.pool = par.NewPool(1, 1)
	}
	return e, nil
}

// startupSample is the offline phase: cfg.Router's R-sample over every
// vertex pair of cfg.Graph, cfg already defaulted.
func startupSample(cfg Config) (*core.PathSystem, error) {
	if cfg.Router == nil {
		return nil, fmt.Errorf("service: config needs a router or a restored system")
	}
	system, err := core.RSample(cfg.Router, core.AllPairs(cfg.Graph.NumVertices()), cfg.R, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("service: sampling path system: %w", err)
	}
	return system, nil
}

// Restore builds an engine from a snapshot stream, skipping the offline
// phase; the snapshot's sampling metadata overrides cfg's. Its state is
// installed as Open installs the state a log ends in (see install): a
// degraded snapshot's link state is derived from the startup sample with the
// default build options, as an engine made with New uses, and published as
// one link event. So a degraded restore reproduces the writer's installed
// system and hash only when the writer used the default options; a healthy
// restore reproduces it always.
func Restore(r io.Reader, cfg Config) (*Engine, error) {
	s, cfg, err := snapshotState(r, cfg)
	if err != nil {
		return nil, err
	}
	return bringUp(cfg, oblivious.BuildOptions{}, fold(s, nil))
}

// snapshotState decodes a snapshot into the state it holds and cfg completed
// to build its engine: the snapshot's topology, startup sample and sampling
// metadata.
func snapshotState(r io.Reader, cfg Config) (state, Config, error) {
	snap, err := serial.DecodeSnapshot(r)
	if err != nil {
		return state{}, cfg, err
	}
	cfg.Graph, cfg.System = snap.Graph, snap.System
	cfg.RouterName, cfg.R, cfg.Seed = snap.Router, snap.R, snap.Seed
	capacity := make(map[int]float64, len(snap.FailedEdges)+len(snap.Capacities))
	for _, id := range snap.FailedEdges {
		capacity[id] = 0
	}
	maps.Copy(capacity, snap.Capacities)
	return state{system: snap.System, capacity: capacity, version: max(snap.LinkVersion, 1), seq: snap.WALSeq}, cfg, nil
}

// bringUp builds an engine from cfg and installs the state r ends in (see
// install). The engine keeps build for its survivor routers (see Open).
func bringUp(cfg Config, build oblivious.BuildOptions, r *replay) (*Engine, error) {
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	e.build = build
	if err := e.install(r); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

// System returns the path system the engine currently serves: the installed
// candidates pruned to those avoiding every failed edge. Lock-free.
func (e *Engine) System() *core.PathSystem { return e.links.Load().serving }

// installedSystem returns the full installed path system — startup sample
// plus the recovery and widening paths of the current capacity map,
// unpruned. Lock-free.
func (e *Engine) installedSystem() *core.PathSystem { return e.links.Load().installed }

// Hash returns the canonical digest of the installed path system (see
// serial.PathSystemHash). The installed system is a function of the capacity
// map, so the hash is too: it changes only when recovery or widening for the
// new map installs different paths, never on a pure prune, and restoring
// every edge gives exactly the startup hash again. The first read of a link
// state computes it.
func (e *Engine) Hash() uint64 { return e.links.Load().digest(e.pairs) }

// Metrics returns the engine's metrics registry.
func (e *Engine) Metrics() *Metrics { return e.metrics }

// Active returns the currently published state, nil before the first solved
// epoch. Lock-free.
func (e *Engine) Active() *State { return e.active.Load() }

// Health reports the engine's state machine: closed beats degraded beats ok.
func (e *Engine) Health() *Health {
	ls := e.links.Load()
	h := &Health{
		Status:          HealthOK,
		LinkVersion:     ls.version,
		FailedEdges:     ls.failedIDs,
		DegradedEdges:   ls.degradedCaps,
		UncoveredPairs:  len(ls.uncovered),
		AtRiskPairs:     len(ls.atRisk),
		DegradedSeconds: ls.degradedSeconds(),
	}
	if st := e.Active(); st != nil {
		h.Epoch = st.Epoch
	}
	h.LastOutcome = e.lastOutcome.Load()
	switch {
	case e.closed.Load():
		h.Status = HealthClosed
	case ls.degraded():
		h.Status = HealthDegraded
	}
	return h
}

// SubmitDemandCtx validates d, assigns it the next epoch number, and hands
// it to the solver. It returns ErrRateLimited (wrapped in a *ShedError
// carrying the retry hint) when admission control sheds the mutation, and
// errClosed after Close. Demands on pairs that were never installed are
// rejected; demands on installed pairs whose candidates are currently dead
// are accepted and served degraded (the dead pairs are dropped at solve time
// and counted in the outcome). The solve itself runs asynchronously; use
// Wait to observe its outcome. A later mutation accepted before the solver
// picks this one up supersedes it: only the latest demand is solved, and
// Wait on this epoch reports that solve's outcome.
//
// ctx is checked once, before admission, and a done ctx returns ctx.Err()
// with nothing logged and no epoch assigned. Once accepted, the mutation is
// solved, or superseded by a later one, whatever happens to ctx afterwards:
// the log already holds it, so serving anything else would make the live
// routing differ from what a replay of the log serves.
func (e *Engine) SubmitDemandCtx(ctx context.Context, d *demand.Demand) (uint64, error) {
	return e.acceptDemand(ctx, submitOp(d))
}

// acceptDemand is the one accept step every demand mutation takes — submit
// or patch, from the Go API or the HTTP layer: check the caller is still
// there and admit it, then apply the record (see applyDemand), and only
// then wait for the fsync that makes it durable. The fsync runs outside
// e.mu, so concurrent accepts share one (see wal.Log.Sync), and the drain
// syncs the log before it solves a request it picked up (see solve), so
// nothing unsynced is ever solved or served.
func (e *Engine) acceptDemand(ctx context.Context, op *walOp) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	// Admission runs before the WAL append: a shed mutation must leave no
	// trace to replay, and no durable work should be spent on it.
	if wait, shed := e.admitMutation(); shed != nil {
		return 0, &ShedError{Err: shed, After: wait}
	}
	epoch, err := e.applyDemand(op)
	if err != nil {
		return 0, err
	}
	if err := e.syncWAL(); err != nil {
		return 0, err
	}
	e.maybeCheckpoint()
	return epoch, nil
}

// applyDemand steps the standing demand with op, logs it, puts the solve in
// the slot and makes the matrix the base later patches merge into, all under
// e.mu. A record whose fsync then fails stays applied, as it stays in the
// file: the live demand is what a reopen of the log gives, and the failed
// fsync breaks the log, so the drain neither solves nor serves it.
func (e *Engine) applyDemand(op *walOp) (uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return 0, errClosed
	}
	next, touched, err := step(e.at(e.links.Load(), e.lastSubmitted), op)
	if err != nil {
		return 0, err
	}
	if err := e.logLocked(op); err != nil {
		return 0, err
	}
	epoch, err := e.putLocked(&epochRequest{d: next.demand, touched: touched})
	if err != nil {
		return 0, err
	}
	e.lastSubmitted = next.demand
	if op.Op == walOpPatch {
		e.metrics.patches.Add(1)
	}
	return epoch, nil
}

// putLocked assigns req the next epoch number and puts it in the engine's
// one-slot mailbox, the only way work reaches the solver. A request still
// waiting there is superseded, never solved: req takes over its waiters, and
// keeps a delta work list only when both are patches (the union of their
// touched pairs, since neither has been solved). The drain task is submitted
// only when none is queued or running, so at most one solve is in flight.
// errClosed means the pool refused the task. Callers hold e.mu and have
// validated req.
func (e *Engine) putLocked(req *epochRequest) (uint64, error) {
	if !e.draining {
		if !e.pool.TrySubmit(e.drain) {
			return 0, errClosed
		}
		e.draining = true
	}
	e.nextEpoch++
	req.epoch = e.nextEpoch
	req.queued = time.Now()
	if old := e.slot; old != nil {
		req.covers = append(old.covers, old.epoch)
		if req.touched != nil && old.touched != nil {
			touched := slices.Clone(old.touched)
			for _, p := range req.touched {
				if !slices.Contains(touched, p) {
					touched = append(touched, p)
				}
			}
			req.touched = touched
		} else {
			req.touched = nil
		}
		e.metrics.superseded.Add(1)
	}
	e.slot = req
	e.pending[req.epoch] = struct{}{}
	e.metrics.received.Add(1)
	return req.epoch, nil
}

// drain is the engine's solver task: it solves the request in the slot until
// the slot stays empty. Between solves it yields its worker by resubmitting
// itself, so on a shared fleet pool a busy shard waits its round-robin turn;
// if the pool refuses (it is closing) it carries on inline, where the
// canceled root context makes each solve a prompt fallback.
func (e *Engine) drain() {
	e.mu.Lock()
	for req := e.slot; req != nil; req = e.slot {
		e.slot = nil
		e.mu.Unlock()
		e.solve(req)
		e.mu.Lock()
		if e.slot != nil && e.pool.TrySubmit(e.drain) {
			e.mu.Unlock()
			return
		}
	}
	e.draining = false
	e.mu.Unlock()
}

// Wait blocks until the epoch's outcome is known or ctx expires; a
// superseded epoch's outcome is its covering epoch's. Waiting on an epoch the
// engine cannot resolve — never assigned, or already evicted from the bounded
// outcome history — returns errUnknownEpoch immediately instead of blocking
// until ctx expires.
func (e *Engine) Wait(ctx context.Context, epoch uint64) (*Outcome, error) {
	e.mu.Lock()
	if out, ok := e.outcomes[epoch]; ok {
		e.mu.Unlock()
		return out, nil
	}
	if _, ok := e.pending[epoch]; !ok {
		e.mu.Unlock()
		return nil, fmt.Errorf("%w: %d", errUnknownEpoch, epoch)
	}
	ch := make(chan *Outcome, 1)
	e.waiters[epoch] = append(e.waiters[epoch], ch)
	e.mu.Unlock()
	select {
	case out := <-ch:
		return out, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// solve runs one epoch on the drain task's worker: it syncs the WAL, runs
// epoch under a deadline context derived from the engine root, and hands the
// result to conclude, which publishes it and calls finish. The sync comes
// first so that nothing unsynced is solved or served: the accept that put req
// in the slot may still wait for its fsync, and this wait shares it and
// counts as queue wait, the time req spent in the slot (behind the solve in
// flight, and on a shared pool behind other shards). A missed deadline (or
// Close) cancels the context the solvers poll, so the worker is freed
// promptly.
func (e *Engine) solve(req *epochRequest) {
	synced := e.syncWAL()
	start := time.Now()
	mon := &solveMonitor{epoch: req.epoch, tracer: e.tracer}
	defer e.tracer.ClearProgress(req.epoch)
	// Worker-level panic backstop: attempt turns solver panics into values,
	// but a panic in the code around them must not unwind the pool worker
	// either (in a fleet that would take down every tenant). conclude calls
	// finish last, so a panic means the epoch is unresolved: it falls back,
	// its waiters are woken with the failure, and the stale routing keeps
	// serving.
	defer func() {
		if p := recover(); p != nil {
			e.conclude(req, start, &epochResult{
				err:    fmt.Errorf("solver panic: %v", p),
				panics: []solverPanic{{"worker", fmt.Sprint(p)}},
			}, nil)
		}
	}()
	res := &epochResult{err: synced}
	if synced == nil {
		ctx := e.rootCtx
		if e.cfg.SolveDeadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, e.cfg.SolveDeadline)
			defer cancel()
		}
		res = epoch(ctx, &epochIn{
			links: e.links.Load(), prev: e.active.Load(), req: req,
			adapt: e.adapt, delta: !e.coldOnly, opts: instrumented(mon),
		})
	}
	e.conclude(req, start, res, mon)
}

// epochIn is everything one epoch is a function of: the link state it solves
// under, the published state (nil before the first epoch), the request, the
// cold solve, whether a delta solve may run at all (Engine.coldOnly clears
// delta), and the solves' observability callbacks, which each attempt
// gets a copy of.
type epochIn struct {
	links *linkState
	prev  *State
	req   *epochRequest
	adapt adaptFunc
	delta bool
	opts  *core.AdaptOptions
}

// epochResult is what one epoch comes to: the state to publish, or the error
// it falls back on, with the demand pairs it dropped for lack of surviving
// candidates, its solve tag (obs.WarmDelta or obs.WarmCold, empty when no
// solve ran), the pairs a delta re-solved, its retries and its attempt chain.
// Solver panics are values too.
type epochResult struct {
	state                     *State
	err                       error
	dropped, touched, retries int
	warm                      string
	attempts                  []obs.Attempt
	panics                    []solverPanic
}

// solverPanic is a panic recovered in one solve stage.
type solverPanic struct{ stage, value string }

// epoch is the adaptation stage of one epoch, a function of in with no
// engine behind it. It restricts the request's matrix to the pairs the link
// state covers, then makes at most a delta solve and one cold adaptation. A
// delta epoch re-solves only its touched pairs (see AdaptDeltaCtx); when it
// cannot, the epoch solves cold, and that cold solve is its one retry. A cold
// solve that fails is the epoch's fallback, with no second try:
// core.AdaptCtx already falls back from the exact LP to MWU inside the one
// attempt, and the solvers are deterministic, so a retry would run the same
// code on the same input.
func epoch(ctx context.Context, in *epochIn) *epochResult {
	ls, req, prev := in.links, in.req, in.prev
	res := &epochResult{}
	served := req.d
	if len(ls.failed) > 0 && !ls.serving.Covers(served) {
		served = served.Restrict(func(p demand.Pair) bool { return ls.serving.NumSampled(p) > 0 })
		res.dropped = req.d.SupportSize() - served.SupportSize()
	}
	if served.SupportSize() == 0 {
		res.err = fmt.Errorf("service: no demand pair has surviving candidate paths")
		return res
	}
	solved := func(r flow.Routing, loads []float64, cong float64, anchor *demand.Demand, streak int) *epochResult {
		res.state = &State{
			Epoch: req.epoch, Demand: served, Routing: r, Congestion: cong, EdgeLoads: loads,
			LinkVersion: ls.version, Anchor: anchor, Streak: streak, SolvedAt: time.Now(),
		}
		return res
	}

	// A delta solve keeps every untouched pair at the previous epoch's
	// placement, so it runs only while nothing that epoch assumed has
	// shifted: not disabled, no link event since it solved (candidate sets
	// and capacity denominators both hang off the link version), no pair
	// dropped, not an emergency renormalized routing, and within the drift
	// and streak guards of its chain.
	if in.delta && req.touched != nil && prev != nil && prev.EdgeLoads != nil && !prev.Renormalized &&
		prev.LinkVersion == ls.version && res.dropped == 0 && withinDrift(served, prev) && prev.Streak < warmMaxStreak {
		opts := *in.opts
		opts.MWU.Iterations = warmIterations
		var dr *core.DeltaResult
		err := res.attempt("delta", func() (err error) {
			dr, err = ls.adaptive.AdaptDeltaCtx(ctx, prev.Routing, prev.EdgeLoads, served, req.touched, &opts)
			return err
		})
		switch {
		case err == nil:
			// A delta epoch inherits the anchor and extends the streak, so
			// cumulative drift and chain length both keep counting.
			res.warm, res.touched = obs.WarmDelta, len(req.touched)
			anchor, streak := served, 0
			if prev.Anchor != nil {
				anchor, streak = prev.Anchor, prev.Streak+1
			}
			return solved(dr.Routing, dr.EdgeLoads, dr.Congestion, anchor, streak)
		case ctx.Err() != nil:
			res.err = ctx.Err()
			return res
		}
		// Any other refusal (the previous routing no longer matches the
		// untouched demand) falls through to the cold solve.
		res.retries = 1
	}

	// ls.adaptive is the serving system rebound over the capacity-scaled
	// topology view when fractional overrides exist: same candidates, reduced
	// congestion denominators, so a degraded link is routed around softly. A
	// cold solve is a fresh optimum: it resets the drift anchor and the streak.
	res.warm = obs.WarmCold
	var r flow.Routing
	opts := *in.opts
	if res.err = res.attempt("adapt", func() (err error) {
		r, err = in.adapt(ctx, ls.adaptive, served, &opts)
		return err
	}); res.err != nil {
		return res
	}
	eff := ls.adaptive.Graph()
	loads := r.EdgeLoads(eff)
	return solved(r, loads, maxCongestion(eff, loads), served, 0)
}

// attempt runs one solve stage — the delta solve or the cold adaptation —
// and appends it to the attempt chain with its wall time and outcome. It is
// the panic barrier too: a panicking solver callback (a buggy
// mcf.Options.Progress hook, a pathological numeric state) becomes a stage
// error and a recorded panic instead of unwinding the pool worker and
// killing the whole (possibly multi-tenant) process; a panicking delta falls
// through to the cold solve, a panicking cold solve falls back.
func (res *epochResult) attempt(stage string, f func() error) (err error) {
	t0 := time.Now()
	defer func() {
		if p := recover(); p != nil {
			res.panics = append(res.panics, solverPanic{stage, fmt.Sprint(p)})
			err = fmt.Errorf("service: solver panic in %s: %v", stage, p)
		}
		a := obs.Attempt{Stage: stage, Ms: msSince(t0), OK: err == nil}
		if err != nil {
			a.Err = err.Error()
		}
		res.attempts = append(res.attempts, a)
	}()
	return f()
}

// conclude is the one accounting tail of an epoch, solved or interim: it
// maps res to the epoch's Outcome, obs.EpochTrace, metrics and journal
// events, publishes res.state when there is one, and resolves the epoch and
// every epoch it covers through finish, its last call. start is when the
// epoch began to run: the trace's solve time runs from it to this call and
// its publish time covers the publish only. A recovered panic counts in
// solve_panics and is journaled as a solve_failure with its stage, so the
// operator sees it even when the cold solve rescued the epoch. mon, nil when
// no solver ran, fills in the solver's signals.
func (e *Engine) conclude(req *epochRequest, start time.Time, res *epochResult, mon *solveMonitor) {
	latency := time.Since(start)
	out := &Outcome{
		Epoch: req.epoch, Latency: latency, Retries: res.retries,
		DroppedPairs: res.dropped, Warm: res.warm, TouchedPairs: res.touched,
	}
	tr := &obs.EpochTrace{
		Epoch: req.epoch, Start: start, QueueWaitMs: ms(start.Sub(req.queued)), Attempts: res.attempts,
		SolveMs: ms(latency), Retries: res.retries, DroppedPairs: res.dropped,
		WarmStart: res.warm, TouchedPairs: res.touched,
	}
	for _, p := range res.panics {
		e.metrics.solvePanics.Add(1)
		e.record(obs.EventSolveFailure, map[string]any{"epoch": req.epoch, "stage": p.stage, "panic": p.value})
	}
	e.metrics.solveRetries.Add(int64(res.retries))
	if s := res.state; s != nil {
		pubStart := time.Now()
		e.publish(s)
		tr.PublishMs = msSince(pubStart)
		out.OK, out.Renormalized, out.Congestion, tr.Congestion = true, s.Renormalized, s.Congestion, s.Congestion
	} else {
		out.Fallback, out.Err = true, res.err.Error()
		e.metrics.fallbacks.Add(1)
	}
	switch {
	case out.Renormalized:
		tr.Outcome = obs.OutcomeRenormalized
		e.metrics.renormalizedServes.Add(1)
	case out.OK:
		tr.Outcome = obs.OutcomeSolved
		e.metrics.solved.Add(1)
		e.metrics.lastCongestion.Set(out.Congestion)
		if out.Warm == obs.WarmDelta {
			e.metrics.deltaEpochs.Add(1)
		}
	case errors.Is(res.err, context.DeadlineExceeded):
		tr.Outcome = obs.OutcomeCanceled
		out.Err = fmt.Sprintf("solve canceled at deadline %v", e.cfg.SolveDeadline)
		e.metrics.deadlineMissed.Add(1)
		e.metrics.canceled.Add(1)
	case errors.Is(res.err, context.Canceled):
		tr.Outcome = obs.OutcomeCanceled
		out.Err = "solve canceled: engine closing"
		e.metrics.canceled.Add(1)
	default:
		tr.Outcome = obs.OutcomeFallback
		e.metrics.failed.Add(1)
		e.record(obs.EventSolveFailure, map[string]any{
			"epoch": req.epoch, "err": out.Err, "retries": res.retries,
		})
	}
	tr.TotalMs = msSince(start)
	mon.fill(tr)
	if e.tracer.Record(tr) {
		e.metrics.slowSolves.Add(1)
	}
	e.finish(out, req.covers)
}

// publish installs s as the active state unless a newer epoch already won
// the race (a link event's interim publish can land while an older epoch is
// still solving, or after its own re-adapt). An installed state's routing
// reply is encoded off the caller's goroutine right away, so neither the
// epoch nor its first reader pays for the encoding.
func (e *Engine) publish(s *State) {
	for {
		cur := e.active.Load()
		if cur != nil && cur.Epoch >= s.Epoch {
			return
		}
		if e.active.CompareAndSwap(cur, s) {
			go s.routingReply()
			return
		}
	}
}

// withinDrift reports whether the new matrix is close enough to the previous
// state's drift anchor — the matrix of the last cold solve in its delta
// chain — for a delta solve to stay near the fresh optimum (see
// warmMaxDrift). The anchor, not the previous epoch, is the baseline:
// per-epoch drift is always small under a delta workload, but delta epochs
// freeze untouched placements, so error compounds with cumulative drift
// until a cold solve resets it.
func withinDrift(d *demand.Demand, prev *State) bool {
	anchor := prev.Anchor
	if anchor == nil {
		anchor = prev.Demand
	}
	size := d.Size()
	if size <= 0 {
		return false
	}
	return demand.L1(d, anchor) <= warmMaxDrift*size
}

// maxCongestion is the maximum relative congestion of the given absolute
// edge loads on g.
func maxCongestion(g *graph.Graph, loads []float64) float64 {
	var mx float64
	for id, l := range loads {
		if c := l / g.Edge(id).Capacity; c > mx {
			mx = c
		}
	}
	return mx
}

// finish records the outcome (bounded history, Config.OutcomeHistory deep)
// under its epoch and every epoch it covers, and wakes all their waiters.
func (e *Engine) finish(out *Outcome, covers []uint64) {
	keep := e.cfg.OutcomeHistory
	var chs []chan *Outcome
	e.mu.Lock()
	for _, epoch := range append(covers[:len(covers):len(covers)], out.Epoch) {
		delete(e.pending, epoch)
		e.outcomes[epoch] = out
		e.order = append(e.order, epoch)
		chs = append(chs, e.waiters[epoch]...)
		delete(e.waiters, epoch)
	}
	for len(e.order) > keep {
		delete(e.outcomes, e.order[0])
		e.order = e.order[1:]
	}
	if last := e.lastOutcome.Load(); last == nil || last.Epoch <= out.Epoch {
		e.lastOutcome.Store(out)
	}
	e.mu.Unlock()
	for _, ch := range chs {
		ch <- out
	}
}

// writeSnapshot encodes the engine's topology, startup path system,
// failed-edge set, capacity overrides, WAL watermark, link version and
// sampling metadata: the inputs its link state is derived from, so a future
// engine can Restore into the same installed system without resampling the
// startup one.
func (e *Engine) writeSnapshot(w io.Writer) error {
	ls := e.links.Load()
	return serial.EncodeSnapshot(w, &serial.Snapshot{
		Router:      e.cfg.RouterName,
		R:           e.cfg.R,
		Seed:        e.cfg.Seed,
		Graph:       e.cfg.Graph,
		System:      e.original,
		FailedEdges: ls.failedIDs,
		Capacities:  ls.fractionalOverrides(),
		WALSeq:      e.opSeq.Load(),
		LinkVersion: ls.version,
	})
}

// Close stops accepting demands, cancels the root context so an in-flight
// solve aborts at its next poll, drains the pool (a request still in the
// slot runs, observes the canceled context immediately, and records a
// fallback outcome so its waiters are woken), and returns. Drain is prompt:
// no solve survives Close.
func (e *Engine) Close() {
	e.mu.Lock()
	already := e.closed.Swap(true)
	e.mu.Unlock()
	if !already {
		e.record(obs.EventHealth, map[string]any{"to": HealthClosed})
	}
	e.stop()
	e.pool.Close()
}
