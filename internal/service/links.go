package service

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"time"

	"sparseroute/internal/core"
	"sparseroute/internal/demand"
	"sparseroute/internal/flow"
	"sparseroute/internal/graph"
	"sparseroute/internal/oblivious"
	"sparseroute/internal/obs"
	"sparseroute/internal/serial"
)

// linkState is one published version of the link-capacity state and
// everything derived from it. Like State it is immutable once published:
// readers load it through an atomic pointer and never take a lock; a link
// event derives a fresh value and swaps it in under e.mu.
type linkState struct {
	// version counts applied topology events, starting at 1.
	version uint64
	// capacity is the effective-capacity override layer, keyed by edge ID:
	// 0 = failed, (0,1) = degraded, absent = healthy (full capacity).
	// Never mutated after publish.
	capacity map[int]float64
	// failed is the zero-capacity subset of the override map — the set path
	// pruning uses. Degraded-but-alive edges are NOT in it: their candidates
	// keep serving and the solvers re-optimize congestion against the scaled
	// view instead.
	failed map[int]bool
	// failedIDs is the sorted failed edge set, cached at publish time so
	// link reports, healthz and metric scrapes never re-sort. Callers must
	// not mutate.
	failedIDs []int
	// degradedCaps lists the fractional (0,1) overrides sorted by edge ID,
	// cached at publish time. Callers must not mutate.
	degradedCaps []EdgeCapacity
	// installed is the full path system: the startup sample plus the
	// recovery and widening paths this capacity map draws (see deriveLinks).
	// Paths through currently failed edges stay installed; only serving is
	// pruned. An unimpaired map installs the startup sample itself.
	installed *core.PathSystem
	// serving is installed.WithoutEdges(failed): the candidates adaptation
	// and path lookups use.
	serving *core.PathSystem
	// adaptive is serving rebound over the capacity-scaled view of the
	// topology (same shape and edge IDs, reduced capacities) — the system
	// handed to the solvers, and its graph the one congestion is measured
	// against, so a weakened link is re-optimized around rather than pruned.
	// Identical to serving when no fractional overrides exist.
	adaptive *core.PathSystem
	// hash memoizes the canonical digest of installed (see digest), shared
	// with every link state that installs the same system.
	hash *pathHash
	// uncovered lists the installed pairs with zero surviving candidates
	// after pruning and recovery resampling — under the R-sample's path
	// diversity this is almost always exactly the pairs the surviving graph
	// disconnects.
	uncovered []demand.Pair
	// atRisk lists the pairs proactive recovery targets that it could not
	// widen: pruning left each a single surviving unique candidate, so one
	// more failure disconnects it.
	atRisk []demand.Pair
	// degradedSince is when the current impaired stint began (zero while
	// healthy), and degradedTotal the wall time of every earlier stint. Both
	// are set at publish time (see carryDegraded), so health checks and
	// metric scrapes read them without taking a lock.
	degradedSince time.Time
	degradedTotal time.Duration
	// sizes holds the path counts the path_system gauge reports, filled by
	// the first scrape of this version and never on the link-event path.
	sizes struct {
		once                              sync.Once
		total, serving, sparsity, maxHops int
	}
}

// pathHash is the hash memo of one installed system, filled by its first
// read like linkState.sizes: a link event never hashes, so a replay hashes
// only the state it ends in.
type pathHash struct {
	once sync.Once
	sum  uint64
}

// digest returns the canonical digest of ls.installed (see
// serial.PathSystemHash); pairs is the installed pair set, sorted.
func (ls *linkState) digest(pairs []demand.Pair) uint64 {
	ls.hash.once.Do(func() { ls.hash.sum = serial.PathSystemHashOver(ls.installed, pairs) })
	return ls.hash.sum
}

// triggerSingleSurvivor is the trigger every widening journal event
// records: a pair pruned down to one surviving unique candidate while other
// installed candidates are dead.
const triggerSingleSurvivor = "single-survivor"

// EdgeCapacity reports one degraded-but-alive edge: its ID and effective-
// capacity multiplier in (0,1).
type EdgeCapacity struct {
	Edge     int     `json:"edge"`
	Capacity float64 `json:"capacity"`
}

// prune derives serving and the uncovered pairs of the still unpublished ls
// from its installed system and failed set: the one linear pass a link event
// makes over the installed paths. Serving is installed itself while nothing
// is failed, and otherwise shares the storage of every pair the failures do
// not touch. pairs is the installed pair set, sorted.
func (ls *linkState) prune(pairs []demand.Pair) {
	ls.serving, ls.uncovered = ls.installed, nil
	if len(ls.failed) > 0 {
		ls.serving = ls.installed.WithoutEdges(ls.failed)
		ls.uncovered = ls.serving.UncoveredPairs(pairs)
	}
}

// add installs extra's paths after the installed ones, pair by pair, and
// extends serving with those that avoid the failed edges: what a fresh prune
// of the merged system would give, touching only extra's pairs.
func (ls *linkState) add(extra *core.PathSystem) error {
	installed := ls.installed.Clone()
	if err := installed.Merge(extra); err != nil {
		return err
	}
	serving := installed
	if len(ls.failed) > 0 {
		serving = ls.serving.Clone()
		if err := serving.Merge(extra.WithoutEdges(ls.failed)); err != nil {
			return err
		}
	}
	ls.installed, ls.serving = installed, serving
	return nil
}

// degraded reports whether the link state is impaired at all — failed edges
// or reduced capacities.
func (ls *linkState) degraded() bool { return len(ls.capacity) > 0 }

// fractionalOverrides returns the (0,1) subset of the override map, nil when
// none exist.
func (ls *linkState) fractionalOverrides() map[int]float64 {
	var out map[int]float64
	for id, c := range ls.capacity {
		if c > 0 {
			if out == nil {
				out = make(map[int]float64)
			}
			out[id] = c
		}
	}
	return out
}

// LinkUpdate reports one applied topology event.
type LinkUpdate struct {
	// Version is the link-state version after the event.
	Version uint64
	// FailedEdges is the resulting failed set, sorted. Shared with the
	// published link state — callers must not mutate.
	FailedEdges []int
	// DegradedEdges lists the edges serving at reduced capacity (multiplier
	// in (0,1)), sorted by edge ID. Shared with the published link state.
	DegradedEdges []EdgeCapacity
	// UncoveredPairs counts installed pairs left with zero candidates.
	UncoveredPairs int
	// AtRiskPairs counts pairs left with exactly one surviving candidate
	// after this event (proactive recovery could not widen them).
	AtRiskPairs int
	// RecoveredPairs counts pairs whose coverage was restored by recovery
	// resampling during this event.
	RecoveredPairs int
	// RecoveryPaths counts the fresh paths drawn during this event.
	RecoveryPaths int
	// ProactivePairs counts at-risk pairs proactive recovery resampled
	// during this event.
	ProactivePairs int
	// ProactivePaths counts the fresh unique paths proactive recovery
	// installed during this event.
	ProactivePaths int
	// Degraded reports whether any edge is failed or capacity-reduced after
	// the event.
	Degraded bool

	// links is the published link state the update reports, for the HTTP
	// layer to hash.
	links *linkState
}

// reportLinks reports ls as an update that carries it.
func reportLinks(ls *linkState) *LinkUpdate {
	return &LinkUpdate{
		links:          ls,
		Version:        ls.version,
		FailedEdges:    ls.failedIDs,
		DegradedEdges:  ls.degradedCaps,
		UncoveredPairs: len(ls.uncovered),
		AtRiskPairs:    len(ls.atRisk),
		Degraded:       ls.degraded(),
	}
}

// FailEdges marks the given edges failed (idempotent for already-failed
// edges): the serving system is pruned to candidates avoiding them, pairs
// that lost every candidate are recovery-resampled on the surviving graph,
// and the active demand is re-served over the survivors.
func (e *Engine) FailEdges(ids ...int) (*LinkUpdate, error) {
	return e.applyLinkEvent(&walOp{Op: walOpLinks, Fail: ids})
}

// RestoreEdges marks the given edges healthy again, clearing failures and
// capacity overrides alike. The path system is derived afresh for the
// remaining impairments, so restoring every edge installs the startup sample
// again.
func (e *Engine) RestoreEdges(ids ...int) (*LinkUpdate, error) {
	return e.applyLinkEvent(&walOp{Op: walOpLinks, Restore: ids})
}

// applyLinkEvent is the single live writer of the link state: FailEdges,
// RestoreEdges and POST /v1/links build the record. It steps the link state
// with the record (see step) and derives the link state of the new capacity
// map from the startup sample (see deriveLinks) outside any lock,
// against the link state it read; derivation is pure, so if another event
// published first it simply derives again. Then, under e.mu, it logs the
// record, waits for its fsync (link events are rare, so theirs stays inside
// the lock), publishes the new immutable linkState and puts the re-adapt of
// the latest accepted demand in the slot (see publishLinksLocked). Once e.mu
// is released it publishes the interim renormalization of the previous
// routing over the surviving paths (cheap, no solver — degraded-mode
// serving). Replay folds link records with the same step, and derives only
// the map its log ends in.
func (e *Engine) applyLinkEvent(op *walOp) (*LinkUpdate, error) {
	cur := e.links.Load()
	for {
		if e.closed.Load() {
			return nil, errClosed
		}
		next, _, err := step(e.at(cur, nil), op)
		if err != nil {
			return nil, err
		}
		if next.version == cur.version {
			// No-op event: report the current state without a version bump.
			return reportLinks(cur), nil
		}
		ev := e.deriveLinks(next.version, next.capacity)
		e.mu.Lock()
		if latest := e.links.Load(); latest != cur {
			// Another event published first: step and derive against it.
			e.mu.Unlock()
			cur = latest
			continue
		}
		update, interim, err := e.commitLinksLocked(cur, ev, op)
		e.mu.Unlock()
		if err != nil {
			return nil, err
		}
		if interim != nil {
			interim()
		}
		e.maybeCheckpoint()
		return update, nil
	}
}

// commitLinksLocked logs op, waits for its fsync and publishes ev over cur.
// The record is durable before anything is published, and nothing the
// derivation reports (counters, widening events) is emitted unless it
// commits, so a refused event leaves no trace. (A failed fsync leaves the
// record in the file unpublished, but it also breaks the log, so nothing
// lands after it, and the next checkpoint rewrites the log from the live
// state.) It is logged after the no-op check so replay sees exactly the
// version-bumping events, and replayed versions match the original run one
// for one. Callers hold e.mu.
func (e *Engine) commitLinksLocked(cur *linkState, ev *linkEvent, op *walOp) (*LinkUpdate, func(), error) {
	if e.closed.Load() {
		return nil, nil, errClosed
	}
	err := e.logLocked(op)
	if err == nil {
		err = e.syncWAL()
	}
	if err != nil {
		return nil, nil, err
	}
	update, interim := e.publishLinksLocked(cur, ev, op)
	return update, interim, nil
}

// nextCapacity folds a link record into the override map cur of a graph with
// m edges, returning a new map: Replace starts from empty, Fail zeroes, Caps
// assign (>= 1 clears), Restore clears and wins. A record naming an edge the
// graph does not have, or a capacity that is negative or not finite, is
// refused whole.
func nextCapacity(m int, cur map[int]float64, op *walOp) (map[int]float64, error) {
	known := func(id int) error {
		if id < 0 || id >= m {
			return fmt.Errorf("%w: %d (graph has %d edges)", errUnknownEdge, id, m)
		}
		return nil
	}
	for _, ids := range [2][]int{op.Fail, op.Restore} {
		for _, id := range ids {
			if err := known(id); err != nil {
				return nil, err
			}
		}
	}
	for _, c := range op.Caps {
		if err := known(c.Edge); err != nil {
			return nil, err
		}
		if c.Capacity < 0 || math.IsNaN(c.Capacity) || math.IsInf(c.Capacity, 0) {
			return nil, fmt.Errorf("%w: edge %d needs a finite value >= 0, got %v", errBadCapacity, c.Edge, c.Capacity)
		}
	}

	capacity := make(map[int]float64, len(cur)+len(op.Fail)+len(op.Caps))
	if !op.Replace {
		for id, c := range cur {
			capacity[id] = c
		}
	}
	for _, id := range op.Fail {
		capacity[id] = 0
	}
	for _, c := range op.Caps {
		if c.Capacity >= 1 {
			delete(capacity, c.Edge)
		} else {
			capacity[c.Edge] = c.Capacity
		}
	}
	for _, id := range op.Restore {
		delete(capacity, id)
	}
	return capacity, nil
}

// deriveLinks derives the unpublished link state of the override map
// capacity, at version, from the startup sample alone: it prunes the sample
// to the zero-capacity (failed) survivors via WithoutEdges, recovery-
// resamples the pairs that lost every candidate, proactively widens the
// at-risk pairs, and fills the read-side caches. Each sampling pass is
// seeded by the edges it avoids (see passSeed), never by the version, so the
// installed system is a function of the map and not of the events that led
// to it; an unimpaired map installs the startup sample itself and shares its
// hash memo.
func (e *Engine) deriveLinks(version uint64, capacity map[int]float64) *linkEvent {
	next := &linkState{
		version:   version,
		capacity:  capacity,
		failed:    failedSubset(capacity),
		installed: e.original,
	}
	ev := &linkEvent{next: next, update: &LinkUpdate{Version: version}}
	next.prune(e.pairs)
	// Recovery and single-survivor widening both avoid exactly next.failed,
	// so they share one router (see eventRouter).
	survivors := &eventRouter{avoid: next.failed}
	if len(next.uncovered) > 0 {
		e.recoverUncovered(ev, survivors)
	}
	e.proactiveRecover(ev, survivors)
	// The derivation hashes nothing: the memo is filled by the first read.
	next.hash = e.originalHash
	if next.installed != e.original {
		next.hash = new(pathHash)
	}

	// The read-side caches: sorted reports and the capacity-scaled solve view.
	next.failedIDs = make([]int, 0, len(next.failed))
	for id := range next.failed {
		next.failedIDs = append(next.failedIDs, id)
	}
	sort.Ints(next.failedIDs)
	fractional := next.fractionalOverrides()
	next.degradedCaps = make([]EdgeCapacity, 0, len(fractional))
	for id, c := range fractional {
		next.degradedCaps = append(next.degradedCaps, EdgeCapacity{Edge: id, Capacity: c})
	}
	sort.Slice(next.degradedCaps, func(i, j int) bool {
		return next.degradedCaps[i].Edge < next.degradedCaps[j].Edge
	})
	next.adaptive = next.serving
	if len(fractional) > 0 {
		if rebound, err := next.serving.Rebind(graph.ScaleCapacities(e.cfg.Graph, fractional)); err == nil {
			next.adaptive = rebound
		}
	}
	return ev
}

// publishLinksLocked publishes the derived state of ev over cur, reports and
// journals the event op describes, and queues the re-serve of the active
// demand (see reRouteLocked), returning the interim publish to run once e.mu
// is released (nil when there is nothing to re-serve). Callers hold e.mu.
func (e *Engine) publishLinksLocked(cur *linkState, ev *linkEvent, op *walOp) (*LinkUpdate, func()) {
	next, update := ev.next, ev.update
	update.FailedEdges = next.failedIDs
	update.DegradedEdges = next.degradedCaps
	update.UncoveredPairs = len(next.uncovered)
	update.AtRiskPairs = len(next.atRisk)
	update.Degraded = next.degraded()
	update.links = next

	next.carryDegraded(cur, time.Now())
	e.links.Store(next)
	e.metrics.linkEvents.Add(1)
	if len(op.Caps) > 0 {
		e.metrics.capacityEvents.Add(1)
	}
	e.emit(ev)

	// Journal the event and any health transition it caused, so a
	// post-incident read of /debug/events reconstructs the whole
	// fail -> degraded -> recover sequence without scraping counters.
	detail := map[string]any{
		"version":   next.version,
		"failed":    len(next.failed),
		"degraded":  len(next.degradedCaps),
		"uncovered": len(next.uncovered),
	}
	if len(op.Fail) > 0 {
		detail["fail"] = append([]int(nil), op.Fail...)
	}
	if len(op.Restore) > 0 {
		detail["restore"] = append([]int(nil), op.Restore...)
	}
	if op.Replace {
		detail["set"] = true
	}
	e.record(obs.EventLink, detail)
	for _, c := range op.Caps {
		e.record(obs.EventCapacity, map[string]any{
			"edge": c.Edge, "capacity": c.Capacity, "version": next.version,
		})
	}
	if cur.degraded() != next.degraded() {
		from, to := HealthOK, HealthDegraded
		if cur.degraded() {
			from, to = HealthDegraded, HealthOK
		}
		e.record(obs.EventHealth, map[string]any{
			"from": from, "to": to, "version": next.version,
			"failed_edges": len(next.failed), "degraded_edges": len(next.degradedCaps),
		})
	}

	// Re-serve the active demand over the survivors. This runs after the
	// publish so the interim renormalization and the re-adapt epoch both see
	// the new link state.
	return update, e.reRouteLocked(next)
}

// atRiskList lists the pairs proactive recovery should widen: those pruning
// left exactly one surviving unique candidate while at least one installed
// candidate is dead. Pairs that only ever had a single unique candidate (a
// sparse sample, not a failure) are not at risk in this sense and are left
// alone. Only the given pairs, sorted, are checked, and only a pair the prune
// cost a candidate can be a single survivor.
func atRiskList(ls *linkState, pairs []demand.Pair) []demand.Pair {
	if len(ls.failed) == 0 {
		return nil
	}
	var out []demand.Pair
	for _, p := range pairs {
		if ls.serving.NumSampled(p) < ls.installed.NumSampled(p) &&
			len(ls.serving.Unique(p.U, p.V)) == 1 && len(ls.installed.Unique(p.U, p.V)) > 1 {
			out = append(out, p)
		}
	}
	return out
}

// linkEvent is one link event's derivation in progress: the unpublished next
// state and its report, and what the event reports once it is published (see
// emit).
type linkEvent struct {
	next   *linkState
	update *LinkUpdate
	// Held back until the event is published: survivor routers built,
	// sampling passes that failed, widening passes that installed paths, and
	// the widening journal events in order.
	builds, failures, widenings int
	widened                     []map[string]any
}

// emit reports a published event's counters and widening journal events.
func (e *Engine) emit(ev *linkEvent) {
	m, u := e.metrics, ev.update
	if u.RecoveryPaths > 0 {
		m.recoveryResamples.Add(1)
		m.recoveryPaths.Add(int64(u.RecoveryPaths))
	}
	m.recoveryFailed.Add(int64(ev.failures))
	m.survivorBuilds.Add(int64(ev.builds))
	m.proactiveResamples.Add(int64(ev.widenings))
	m.proactivePaths.Add(int64(u.ProactivePaths))
	for _, detail := range ev.widened {
		e.record(obs.EventWidening, detail)
	}
}

// fresh samples one pass's new paths for pairs from r, seeded by passSeed of
// r's avoid set and the pass's salt; nil, counted as a failure, when the
// router build or the sample fails.
func (e *Engine) fresh(ev *linkEvent, r *eventRouter, pairs []demand.Pair, salt uint64) *core.PathSystem {
	router, err := r.get(e, ev)
	var ps *core.PathSystem
	if err == nil {
		ps, err = core.RSample(router, pairs, e.cfg.R, e.passSeed(r.avoid, salt))
	}
	if err != nil {
		ev.failures++
		return nil
	}
	return ps
}

// passSeed seeds one sampling pass from the engine seed, the pass's salt and
// an FNV-64a digest of the edges the pass avoids, in sorted order: a pass
// draws the same paths whenever it avoids the same edges, whatever sequence
// of events led there.
func (e *Engine) passSeed(avoid map[int]bool, salt uint64) uint64 {
	ids := make([]int, 0, len(avoid))
	for id := range avoid {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	h := fnv.New64a()
	var buf [8]byte
	for _, id := range ids {
		binary.LittleEndian.PutUint64(buf[:], uint64(id))
		h.Write(buf[:])
	}
	return e.cfg.Seed ^ salt ^ h.Sum64()
}

// recoverUncovered runs recovery resampling for next.uncovered: draw fresh
// paths from survivors, the event's router on the pruned graph (core.RSample
// over just the uncovered pairs) so coverage is restored whenever the
// surviving graph still connects a pair. next.installed/serving/uncovered
// are updated in place (next is not yet published).
func (e *Engine) recoverUncovered(ev *linkEvent, survivors *eventRouter) {
	next := ev.next
	// Only pairs the surviving graph still connects can be recovered.
	sub, _ := graph.RemoveEdges(e.cfg.Graph, next.failed)
	comp := components(sub)
	var connected []demand.Pair
	for _, p := range next.uncovered {
		if comp[p.U] == comp[p.V] {
			connected = append(connected, p)
		}
	}
	if len(connected) == 0 {
		return
	}

	fresh := e.fresh(ev, survivors, connected, 0)
	if fresh == nil {
		return
	}
	if err := next.add(fresh); err != nil {
		ev.failures++
		return
	}
	next.uncovered = next.serving.UncoveredPairs(next.uncovered)

	ev.update.RecoveredPairs = len(connected)
	ev.update.RecoveryPaths = fresh.TotalPaths()
}

// proactiveRecover widens the pairs the event left at risk *before* a
// further failure can disconnect them: they are resampled from survivors,
// the router recovery used. Fresh paths are deduplicated against the
// installed set so a survivor graph offering no alternative route cannot
// grow the system; a pair that gains no new unique path simply stays in the
// at-risk report. Every pair that gains paths is journaled as a widening
// event. The pass sets next.atRisk: widening adds candidates to at-risk pairs
// only, so only they are checked again.
func (e *Engine) proactiveRecover(ev *linkEvent, survivors *eventRouter) {
	next := ev.next
	atRisk := atRiskList(next, e.pairs)
	e.widenPairs(ev, atRisk, survivors, 0x5bf03635)
	next.atRisk = atRiskList(next, atRisk)
}

// widenPairs is one proactive-widening pass: sample fresh candidates for the
// given at-risk pairs from survivors, add the genuinely new unique paths to
// the installed system, and journal one widening event per pair that gained
// a path. salt decorrelates the pass from recovery.
func (e *Engine) widenPairs(ev *linkEvent, pairs []demand.Pair, survivors *eventRouter, salt uint64) {
	if len(pairs) == 0 {
		return
	}
	next := ev.next
	fresh := e.fresh(ev, survivors, pairs, salt)
	if fresh == nil {
		return
	}
	for _, pr := range pairs {
		have := make(map[string]bool)
		for _, p := range next.installed.Paths(pr.U, pr.V) {
			have[p.Key()] = true
		}
		// fresh keeps the pair's new unique paths only; Retain asks about
		// each sampled path once, in order.
		sampled := fresh.Paths(pr.U, pr.V)
		fresh.Retain(pr, func(i int) bool {
			key := sampled[i].Key()
			if have[key] {
				return false
			}
			have[key] = true
			return true
		})
	}

	added := 0
	for _, pr := range pairs {
		if gained := fresh.NumSampled(pr); gained > 0 {
			ev.widened = append(ev.widened, map[string]any{
				"pair":    fmt.Sprintf("%d-%d", pr.U, pr.V),
				"trigger": triggerSingleSurvivor,
				"added":   gained,
				"version": next.version,
			})
			added += gained
		}
	}
	if added == 0 {
		return
	}
	if err := next.add(fresh); err != nil {
		ev.failures++
		return
	}

	ev.update.ProactivePairs += len(pairs)
	ev.update.ProactivePaths += added
	ev.widenings++
}

// eventRouter is one link event's survivor router for one avoid set, built
// on first use and shared by every resampling pass that avoids the same
// edges. deriveLinks makes it and drops it when it returns: a survivor
// router never outlives its event (sampling is seeded per pass, and the
// router's tree caches are deterministic, so sharing it changes no path).
type eventRouter struct {
	avoid  map[int]bool
	router oblivious.Router
	err    error
	built  bool
}

// get returns the router, building it on the first call and counting the
// build in ev.
func (r *eventRouter) get(e *Engine, ev *linkEvent) (oblivious.Router, error) {
	if !r.built {
		r.router, r.err = e.survivorRouter(r.avoid)
		r.built = true
		ev.builds++
	}
	return r.router, r.err
}

// survivorRouter builds the recovery router on the surviving subgraph: the
// configured router first, with the build options Open sampled the startup
// system with (tree count, k, dimension) and the engine's seed, falling back
// to SPF (which builds on any graph) when the configured construction does
// not survive pruning — e.g. valiant on a no-longer-hypercube.
func (e *Engine) survivorRouter(failed map[int]bool) (oblivious.Router, error) {
	opt := e.build
	opt.Seed = e.cfg.Seed
	if name := e.cfg.RouterName; name != "" {
		if r, err := oblivious.BuildOnSurvivors(name, e.cfg.Graph, failed, &opt); err == nil {
			return r, nil
		}
	}
	return oblivious.BuildOnSurvivors("spf", e.cfg.Graph, failed, &opt)
}

// reRouteLocked re-serves the active demand after a topology event: an
// immediate publish of the previous routing renormalized over surviving
// paths (no solver in the loop, so traffic leaves dead edges right away),
// then a full re-adaptation epoch put in the slot like any other. Under e.mu
// it assigns the interim its epoch and queues the re-adapt; the interim
// publish itself, returned for the caller to run once e.mu is released
// (finish takes e.mu), reshapes what is being served, restricted to the pairs
// the pruned system still covers (the rest are black-holed until recovery or
// restore — the uncovered count in /healthz). The re-adapt solves the latest
// accepted matrix, not the published one, so a demand accepted while an
// earlier epoch was solving is not lost to the link event; solve restricts it
// to covered pairs as it does every epoch.
func (e *Engine) reRouteLocked(ls *linkState) func() {
	st := e.active.Load()
	if st == nil || st.Demand == nil {
		return nil
	}
	served := st.Demand.Restrict(func(p demand.Pair) bool {
		return ls.serving.NumSampled(p) > 0
	})
	if served.SupportSize() == 0 {
		return nil
	}
	e.nextEpoch++
	interim := e.nextEpoch
	if _, err := e.putLocked(&epochRequest{d: e.lastSubmitted}); err != nil {
		return nil
	}
	e.pending[interim] = struct{}{}
	return func() { e.serveInterim(ls, st, served, interim) }
}

// serveInterim publishes the previous routing of st renormalized over the
// survivors of ls as epoch interim, restricted to the demand served, and
// accounts for it as conclude does every epoch: the pairs of st's demand
// that served leaves out are its dropped pairs.
func (e *Engine) serveInterim(ls *linkState, st *State, served *demand.Demand, interim uint64) {
	start := time.Now()
	r := renormalizeOverSurvivors(ls, st.Routing, served)
	eff := ls.adaptive.Graph()
	loads := r.EdgeLoads(eff)
	e.conclude(&epochRequest{epoch: interim, queued: start}, start, &epochResult{
		state: &State{
			Epoch: interim, Demand: served, Routing: r, Congestion: maxCongestion(eff, loads), EdgeLoads: loads,
			LinkVersion: ls.version, Renormalized: true, SolvedAt: time.Now(),
		},
		dropped:  st.Demand.SupportSize() - served.SupportSize(),
		attempts: []obs.Attempt{{Stage: "renormalize", Ms: msSince(start), OK: true}},
	}, nil)
}

// renormalizeOverSurvivors rescales the previous routing onto surviving
// paths: per demand pair, weights on paths avoiding failed edges are scaled
// up to carry the pair's full amount; a pair whose previous paths all died
// is spread uniformly over its surviving candidates (including recovery
// paths). Every pair of d must be covered by ls.serving — callers restrict
// the demand first.
func renormalizeOverSurvivors(ls *linkState, prev flow.Routing, d *demand.Demand) flow.Routing {
	out := flow.New()
	for _, p := range d.Support() {
		amt := d.Get(p.U, p.V)
		var alive []flow.WeightedPath
		var aliveW float64
		for _, wp := range prev[p] {
			if pathAvoids(wp.Path, ls.failed) {
				alive = append(alive, wp)
				aliveW += wp.Weight
			}
		}
		if aliveW > 1e-12 {
			scale := amt / aliveW
			for _, wp := range alive {
				out[p] = append(out[p], flow.WeightedPath{Path: wp.Path, Weight: wp.Weight * scale})
			}
			continue
		}
		cands := ls.serving.Unique(p.U, p.V)
		w := amt / float64(len(cands))
		for _, c := range cands {
			out[p] = append(out[p], flow.WeightedPath{Path: c, Weight: w})
		}
	}
	return out
}

// pathAvoids reports whether p uses none of the failed edges.
func pathAvoids(p graph.Path, failed map[int]bool) bool {
	for _, id := range p.EdgeIDs {
		if failed[id] {
			return false
		}
	}
	return true
}

// carryDegraded carries the degraded-time account of cur into the
// unpublished ls at now: a stint begins when ls is impaired and cur was not,
// and ends, added to the total, when ls is healthy again.
func (ls *linkState) carryDegraded(cur *linkState, now time.Time) {
	ls.degradedSince, ls.degradedTotal = cur.degradedSince, cur.degradedTotal
	switch {
	case ls.degraded() && ls.degradedSince.IsZero():
		ls.degradedSince = now
	case !ls.degraded() && !ls.degradedSince.IsZero():
		ls.degradedTotal += now.Sub(ls.degradedSince)
		ls.degradedSince = time.Time{}
	}
}

// degradedSeconds returns the cumulative wall time the engine has spent with
// at least one failed or capacity-degraded edge, including the current stint.
func (ls *linkState) degradedSeconds() float64 {
	total := ls.degradedTotal
	if !ls.degradedSince.IsZero() {
		total += time.Since(ls.degradedSince)
	}
	return total.Seconds()
}

// failedSubset extracts the zero-capacity edges of an override map.
func failedSubset(capacity map[int]float64) map[int]bool {
	out := make(map[int]bool)
	for id, c := range capacity {
		if c == 0 {
			out[id] = true
		}
	}
	return out
}

// components labels g's connected components, returning one label per
// vertex.
func components(g *graph.Graph) []int {
	n := g.NumVertices()
	label := make([]int, n)
	for i := range label {
		label[i] = -1
	}
	next := 0
	for s := 0; s < n; s++ {
		if label[s] >= 0 {
			continue
		}
		stack := []int{s}
		label[s] = next
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, id := range g.Incident(v) {
				w := g.Edge(id).Other(v)
				if label[w] < 0 {
					label[w] = next
					stack = append(stack, w)
				}
			}
		}
		next++
	}
	return label
}
