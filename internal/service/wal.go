package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"sparseroute/internal/demand"
	"sparseroute/internal/graph"
	"sparseroute/internal/obs"
	"sparseroute/internal/wal"
)

// The engine's write-ahead log makes every accepted state mutation — demand
// SUBMIT, PATCH set/clear deltas, link fail/restore, capacity overrides —
// durable before it is applied: the operation is framed into Config.WAL and
// fsynced, and only then acknowledged. A SIGKILL between snapshots therefore
// loses nothing a client was told succeeded; on restart ReplayWAL applies the
// logged operations on top of the newest snapshot and the engine re-solves
// into its exact pre-crash demand matrix and link state.
//
// Every operation is an idempotent state *setter* (SUBMIT replaces the whole
// matrix, PATCH assigns absolute amounts, link events set capacities), so
// log-before-apply needs no undo machinery: replaying a record whose apply
// never finished just sets the state the client was promised. Nothing is
// shed after its record is logged, so the engine never writes the "revoke"
// record earlier versions appended for an op shed by back-pressure; replay
// still honours one found in an old log and drops the revoked operation.

// WAL operation kinds.
const (
	walOpSubmit = "submit"
	walOpPatch  = "patch"
	walOpLinks  = "links"
	walOpRevoke = "revoke"
)

// walAmount is one (pair, amount) assignment on the wire.
type walAmount struct {
	U      int     `json:"u"`
	V      int     `json:"v"`
	Amount float64 `json:"amount"`
}

// walPair names one demand pair (a PATCH clear entry).
type walPair struct {
	U int `json:"u"`
	V int `json:"v"`
}

// walCap is one capacity override of a link event.
type walCap struct {
	Edge     int     `json:"edge"`
	Capacity float64 `json:"capacity"`
}

// walOp is one logged state mutation. Seq is the engine-wide operation
// sequence number — monotonic across the engine's whole history, recorded in
// snapshots as the checkpoint watermark so replay can skip records the
// snapshot already covers.
type walOp struct {
	Seq uint64 `json:"seq"`
	Op  string `json:"op"`
	// Entries is a SUBMIT's full demand matrix.
	Entries []walAmount `json:"entries,omitempty"`
	// Set/Clear are a PATCH's deltas (absolute amounts, so replay is
	// idempotent).
	Set   []walAmount `json:"set,omitempty"`
	Clear []walPair   `json:"clear,omitempty"`
	// Fail/Restore/Replace/Caps mirror applyLinkEvent's inputs.
	Fail    []int    `json:"fail,omitempty"`
	Restore []int    `json:"restore,omitempty"`
	Replace bool     `json:"replace,omitempty"`
	Caps    []walCap `json:"caps,omitempty"`
	// Draws is what a link event's sampling passes drew, logged with the
	// event when any pass sampled; replay installs these paths instead of
	// sampling again. A record without it (no pass sampled, or a log written
	// before draws were logged) is replayed by sampling.
	Draws *walDraws `json:"draws,omitempty"`
	// Ref is the sequence number a REVOKE (old logs only) cancels.
	Ref uint64 `json:"ref,omitempty"`
}

// walDraws holds the paths each sampling pass of a link event installed, in
// installation order: the recovery paths, then the single-survivor and the
// headroom widening paths left after their dedupe against the installed
// system. A pass that sampled but installed nothing logs no paths.
type walDraws struct {
	Recover  []drawnPath `json:"recover,omitempty"`
	Single   []drawnPath `json:"single,omitempty"`
	Headroom []drawnPath `json:"headroom,omitempty"`
}

// drawnPath is one logged path: its source vertex, then its edge IDs in order.
type drawnPath []int

// pass returns the path list of the pass named by trigger (recoveryPass or a
// widening trigger).
func (d *walDraws) pass(trigger string) *[]drawnPath {
	switch trigger {
	case TriggerSingleSurvivor:
		return &d.Single
	case TriggerHeadroom:
		return &d.Headroom
	}
	return &d.Recover
}

// path decodes a logged path over g. It walks the edges only to find the far
// end, refusing an unknown edge or a break in the walk; the caller validates
// the result with PathSystem.AddPath.
func (dp drawnPath) path(g *graph.Graph) (graph.Path, error) {
	if len(dp) == 0 {
		return graph.Path{}, fmt.Errorf("empty path")
	}
	src, ids := dp[0], []int(dp[1:])
	cur := src
	for _, id := range ids {
		if id < 0 || id >= g.NumEdges() {
			return graph.Path{}, fmt.Errorf("unknown edge %d (graph has %d edges)", id, g.NumEdges())
		}
		e := g.Edge(id)
		if cur != e.U && cur != e.V {
			return graph.Path{}, fmt.Errorf("edge %d (%d,%d) does not continue from vertex %d", id, e.U, e.V, cur)
		}
		cur = e.Other(cur)
	}
	return graph.Path{Src: src, Dst: cur, EdgeIDs: ids}, nil
}

// submitOp is the record of a full-matrix submission: d flattened into
// (pair, amount) entries in Support's sorted order — deterministic record
// bytes for identical matrices.
func submitOp(d *demand.Demand) *walOp {
	support := d.Support()
	op := &walOp{Op: walOpSubmit, Entries: make([]walAmount, len(support))}
	for i, p := range support {
		op.Entries[i] = walAmount{U: p.U, V: p.V, Amount: d.Get(p.U, p.V)}
	}
	return op
}

// applyDemandOp is the interpreter of demand records: it turns (base matrix,
// record) into the next matrix, and is the only code that does. The live
// accept path and WAL replay both call it, so a record means the same thing
// the day it is accepted and the day it is replayed. It holds all validation
// — endpoints distinct and inside the n-vertex graph, amounts positive and
// finite, a patch needs a base, the result is non-empty — checks the whole
// record before it builds anything, and never modifies base. touched lists
// the pairs a patch named (nil for a submit), the delta solve's work list.
func applyDemandOp(base *demand.Demand, op *walOp, n int) (next *demand.Demand, touched []demand.Pair, err error) {
	pairOK := func(kind string, u, v int) error {
		if u == v {
			return fmt.Errorf("service: %s pair (%d,%d) has equal endpoints", kind, u, v)
		}
		if u < 0 || u >= n || v < 0 || v >= n {
			return fmt.Errorf("service: %s pair (%d,%d) outside graph with %d vertices", kind, u, v, n)
		}
		return nil
	}
	amountsOK := func(kind string, entries []walAmount) error {
		for _, en := range entries {
			if err := pairOK(kind, en.U, en.V); err != nil {
				return err
			}
			if en.Amount <= 0 || math.IsNaN(en.Amount) || math.IsInf(en.Amount, 0) {
				return fmt.Errorf("service: %s pair (%d,%d) needs a positive finite amount, got %v", kind, en.U, en.V, en.Amount)
			}
		}
		return nil
	}
	switch op.Op {
	case walOpSubmit:
		if len(op.Entries) == 0 {
			return nil, nil, fmt.Errorf("service: empty demand")
		}
		if err := amountsOK("demand", op.Entries); err != nil {
			return nil, nil, err
		}
		next = demand.New()
		for _, en := range op.Entries {
			next.Set(en.U, en.V, en.Amount)
		}
		return next, nil, nil
	case walOpPatch:
		if len(op.Set) == 0 && len(op.Clear) == 0 {
			return nil, nil, fmt.Errorf("service: empty patch (need set or clear entries)")
		}
		if err := amountsOK("patch", op.Set); err != nil {
			return nil, nil, err
		}
		for _, c := range op.Clear {
			if err := pairOK("patch", c.U, c.V); err != nil {
				return nil, nil, err
			}
		}
		if base == nil {
			return nil, nil, ErrNoBaseDemand
		}
		next = base.Clone()
		seen := make(map[demand.Pair]bool, len(op.Set)+len(op.Clear))
		touch := func(u, v int) {
			if p := demand.MakePair(u, v); !seen[p] {
				seen[p] = true
				touched = append(touched, p)
			}
		}
		// The record carries absolute amounts, so applying it twice over the
		// same base is idempotent.
		for _, s := range op.Set {
			next.Set(s.U, s.V, s.Amount)
			touch(s.U, s.V)
		}
		for _, c := range op.Clear {
			next.Set(c.U, c.V, 0)
			touch(c.U, c.V)
		}
		if next.SupportSize() == 0 {
			return nil, nil, fmt.Errorf("service: patch clears the whole demand")
		}
		return next, touched, nil
	default:
		return nil, nil, fmt.Errorf("service: unknown op %q", op.Op)
	}
}

// commitOp assigns op the next operation sequence number, appends it to the
// WAL, and fsyncs (group-committed with concurrent writers); without a WAL it
// does nothing. A commit failure means the operation has no durability —
// callers reject it rather than apply something a crash would silently
// forget. Replay never comes here: its operations are already on disk.
//
// Lock order: callers hold e.mu (demand path) or e.linkMu (link path); walMu
// is a leaf below both and is held only across seq-assign + append so the
// two paths interleave correctly. The fsync runs outside walMu, letting the
// log batch concurrent committers into one flush.
func (e *Engine) commitOp(op *walOp) error {
	w := e.cfg.WAL
	if w == nil {
		return nil
	}
	e.walMu.Lock()
	op.Seq = e.opSeq.Add(1)
	buf, err := json.Marshal(op)
	if err == nil {
		err = w.Append(buf)
	}
	e.walMu.Unlock()
	if err != nil {
		return fmt.Errorf("service: wal commit: %w", err)
	}
	if err := w.Sync(); err != nil {
		return fmt.Errorf("service: wal commit: %w", err)
	}
	e.walOpsSince.Add(1)
	return nil
}

// maybeCheckpoint triggers an async snapshot + WAL truncation once
// CheckpointEvery operations have accumulated since the last checkpoint. The
// snapshot runs on its own goroutine (SnapshotToFile takes linkMu and e.mu;
// callers of maybeCheckpoint hold one of them), single-flighted by the
// checkpointing flag.
func (e *Engine) maybeCheckpoint() {
	n := e.cfg.CheckpointEvery
	if n <= 0 || e.cfg.CheckpointPath == "" || e.cfg.WAL == nil {
		return
	}
	if e.walOpsSince.Load() < int64(n) {
		return
	}
	if !e.checkpointing.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer e.checkpointing.Store(false)
		if _, err := e.SnapshotToFile(e.cfg.CheckpointPath); err != nil {
			e.record(obs.EventSolveFailure, map[string]any{
				"err": fmt.Sprintf("checkpoint: %v", err),
			})
		}
	}()
}

// resetWALLocked truncates the WAL after a successful snapshot write — the
// checkpoint operation. Snapshots carry the topology, path system, and link
// state but NOT the demand matrix; the log stays the matrix's durability
// home, so the freshly truncated log is immediately re-seeded with one
// submit record of the current matrix (sequence number past the snapshot's
// watermark, so replay applies it). Callers hold linkMu and e.mu, which
// blocks every mutation path — the snapshot, the truncation, and the
// re-seed are one atomic cut of the engine's history.
func (e *Engine) resetWALLocked() error {
	w := e.cfg.WAL
	if w == nil {
		return nil
	}
	if err := w.Reset(); err != nil {
		return fmt.Errorf("service: checkpoint truncating wal: %w", err)
	}
	e.walOpsSince.Store(0)
	if e.lastSubmitted != nil {
		e.walMu.Lock()
		op := submitOp(e.lastSubmitted)
		op.Seq = e.opSeq.Add(1)
		buf, err := json.Marshal(op)
		if err == nil {
			err = w.Append(buf)
		}
		e.walMu.Unlock()
		if err == nil {
			err = w.Sync()
		}
		if err != nil {
			return fmt.Errorf("service: checkpoint re-seeding demand: %w", err)
		}
	}
	e.metrics.checkpoints.Add(1)
	e.record(obs.EventCheckpoint, map[string]any{
		"wal_seq":      e.opSeq.Load(),
		"link_version": e.links.Load().version,
	})
	return nil
}

// ReplayStats reports what ReplayWAL did.
type ReplayStats struct {
	// Applied counts operations replayed into the engine.
	Applied int
	// Skipped counts records dropped: already covered by the snapshot
	// watermark (Seq <= WALStartSeq), duplicates, revoked by a compensating
	// record, or undecodable.
	Skipped int
	// Truncated reports whether the log had a torn tail (carried over from
	// the wal.Recovery).
	Truncated bool
	// LastSeq is the highest sequence number seen; the engine's operation
	// counter resumes past it.
	LastSeq uint64
}

// ReplayWAL applies the recovered log records on top of the engine's restored
// state, reconstructing the exact pre-crash demand matrix and link state, and
// finishes by putting one solve of the final matrix in the slot. Call it
// once, after New/Restore and before serving traffic.
//
// Replay discipline:
//   - records with Seq <= Config.WALStartSeq are skipped — the snapshot the
//     engine restored from already covers them (checkpoint watermark);
//   - records named by a revoke (written by older versions) are skipped —
//     the client saw them fail;
//   - duplicate/out-of-order sequence numbers are skipped (idempotence);
//   - every other record runs through the interpreter the live accept path
//     runs (applyDemandOp, applyLinkEvent), validation included: a record the
//     engine would refuse today — a log left beside a smaller topology,
//     corruption that kept its CRC — is skipped and journaled with its
//     sequence number, and the records around it still apply;
//   - link events bump the link version and install the paths their record
//     logged, so the recovered path system is the one the engine that never
//     crashed installed and no survivor router is built; a record without
//     draws (written before they were logged) re-draws its paths with the
//     same version-salted seeds as the original run, to the same hash;
//   - demand records only update the submitted matrix — one solve at the end
//     serves the final state instead of replaying every intermediate epoch.
//
// A torn tail was already truncated by wal.Open; ReplayWAL journals it as a
// wal_truncated event and keeps going — recovery degrades to the last good
// record, never to a refused startup. The only error is the engine's own:
// it was closed.
func (e *Engine) ReplayWAL(rec *wal.Recovery) (*ReplayStats, error) {
	stats := &ReplayStats{LastSeq: e.cfg.WALStartSeq}
	if rec == nil {
		return stats, nil
	}

	if rec.Truncated {
		stats.Truncated = true
		e.metrics.walTruncations.Add(1)
		e.record(obs.EventWALTruncated, map[string]any{
			"dropped_bytes": rec.DroppedBytes,
			"good_bytes":    rec.GoodBytes,
			"records":       len(rec.Records),
		})
	}

	ops := make([]*walOp, 0, len(rec.Records))
	revoked := make(map[uint64]bool)
	for _, raw := range rec.Records {
		op := new(walOp)
		if err := json.Unmarshal(raw, op); err != nil {
			stats.Skipped++
			continue
		}
		if op.Op == walOpRevoke {
			revoked[op.Ref] = true
			if op.Seq > stats.LastSeq {
				stats.LastSeq = op.Seq
			}
			continue
		}
		ops = append(ops, op)
	}

	applied := e.cfg.WALStartSeq
	for _, op := range ops {
		if op.Seq > stats.LastSeq {
			stats.LastSeq = op.Seq
		}
		if op.Seq <= applied || revoked[op.Seq] {
			stats.Skipped++
			continue
		}
		if err := e.applyReplayedOp(op); err != nil {
			stats.Skipped++
			e.record(obs.EventSolveFailure, map[string]any{
				"seq": op.Seq,
				"err": fmt.Sprintf("wal replay: op %d (%s): %v", op.Seq, op.Op, err),
			})
			continue
		}
		applied = op.Seq
		stats.Applied++
	}

	// Resume the operation counter past everything ever logged, so fresh
	// operations never reuse a replayed sequence number.
	for {
		cur := e.opSeq.Load()
		if cur >= stats.LastSeq || e.opSeq.CompareAndSwap(cur, stats.LastSeq) {
			break
		}
	}

	// One solve serves the final reconstructed matrix (intermediate epochs
	// are history, not state): the accept step again, as a replay — its
	// records are already on disk, and recovery is not a client to shed.
	if final := e.LastSubmitted(); final != nil {
		if _, err := e.acceptDemand(context.Background(), submitOp(final), true); err != nil {
			return stats, fmt.Errorf("service: replay re-solve: %w", err)
		}
	}

	e.metrics.walReplays.Add(1)
	e.record(obs.EventWALReplay, map[string]any{
		"applied":   stats.Applied,
		"skipped":   stats.Skipped,
		"last_seq":  stats.LastSeq,
		"truncated": stats.Truncated,
	})
	return stats, nil
}

// applyReplayedOp re-applies one logged operation through the accept path's
// own interpreter — this is the accept path minus admission, logging and the
// per-record solve: demand ops install nextDemand's matrix, link ops run the
// full applyLinkEvent pipeline, taking their sampling passes' paths from the
// record when it logged them. A record that fails validation (logged draws
// included) is skipped by the caller rather than aborting recovery.
func (e *Engine) applyReplayedOp(op *walOp) error {
	if op.Op == walOpLinks {
		_, err := e.applyLinkEvent(op, true)
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	next, _, err := e.nextDemand(op)
	if err == nil {
		e.lastSubmitted = next
	}
	return err
}

// LastSubmitted returns a copy of the most recently accepted demand matrix
// (nil before any submission) — the state the WAL drills compare against a
// control engine.
func (e *Engine) LastSubmitted() *demand.Demand {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.lastSubmitted == nil {
		return nil
	}
	return e.lastSubmitted.Clone()
}
