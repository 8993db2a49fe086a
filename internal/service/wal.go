package service

import (
	"encoding/json"
	"fmt"
	"math"

	"sparseroute/internal/demand"
	"sparseroute/internal/obs"
	"sparseroute/internal/wal"
)

// The engine's write-ahead log makes every accepted state mutation — demand
// SUBMIT, PATCH set/clear deltas, link fail/restore, capacity overrides —
// durable before it is acknowledged or served: the operation is framed into
// Config.WAL as it is applied, and fsynced before the reply and before any
// routing that depends on it is published. A SIGKILL between snapshots therefore
// loses nothing a client was told succeeded. The log means one state value
// (see state.go): on restart Open folds the logged operations over the newest
// snapshot's state with the live path's own step, installs the state the log
// ends in once, and the engine re-solves into its exact pre-crash demand
// matrix and link state.
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

// walOp is one logged state mutation. Seq is the engine-wide operation
// sequence number — monotonic across the engine's whole history, recorded in
// snapshots as the checkpoint watermark so replay can skip records the
// snapshot already covers.
type walOp struct {
	Seq uint64 `json:"seq"`
	Op  string `json:"op"`
	// Entries is a SUBMIT's full demand matrix.
	Entries []PairAmount `json:"entries,omitempty"`
	// Set/Clear are a PATCH's deltas (absolute amounts, so replay is
	// idempotent).
	Set   []PairAmount `json:"set,omitempty"`
	Clear []PairRef    `json:"clear,omitempty"`
	// Fail/Restore/Replace/Caps mirror applyLinkEvent's inputs. Records
	// written by older versions may also carry "draws", the paths their
	// sampling passes drew; the field is ignored, since the path system is
	// derived from the capacity map alone.
	Fail    []int          `json:"fail,omitempty"`
	Restore []int          `json:"restore,omitempty"`
	Replace bool           `json:"replace,omitempty"`
	Caps    []EdgeCapacity `json:"caps,omitempty"`
	// Ref is the sequence number a REVOKE (old logs only) cancels.
	Ref uint64 `json:"ref,omitempty"`
}

// submitOp is the record of a full-matrix submission: d flattened into
// (pair, amount) entries in Support's sorted order — deterministic record
// bytes for identical matrices.
func submitOp(d *demand.Demand) *walOp {
	support := d.Support()
	op := &walOp{Op: walOpSubmit, Entries: make([]PairAmount, len(support))}
	for i, p := range support {
		op.Entries[i] = PairAmount{U: p.U, V: p.V, Amount: d.Get(p.U, p.V)}
	}
	return op
}

// applyDemandOp is the interpreter of demand records: it turns (base matrix,
// record) into the next matrix, and is the only code that does; step calls it
// for every demand record, live or replayed. It holds all validation —
// endpoints distinct and inside the n-vertex graph, amounts positive and
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
	amountsOK := func(kind string, entries []PairAmount) error {
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
			return nil, nil, errNoBaseDemand
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

// logLocked assigns op the next operation sequence number and appends it to
// the WAL; without a WAL it does nothing. Callers hold e.mu, the one lock
// every record is sequenced under, so the log's order is the order the live
// state took. The record is not durable until syncWAL returns: an append
// failure refuses the operation before anything is applied, and callers
// apply it only after this returns. Replay never comes here: its operations
// are already on disk.
func (e *Engine) logLocked(op *walOp) error {
	w := e.cfg.WAL
	if w == nil {
		return nil
	}
	op.Seq = e.opSeq.Load() + 1
	buf, err := json.Marshal(op)
	if err == nil {
		err = w.Append(buf)
	}
	if err != nil {
		return fmt.Errorf("%w: %w", errWALCommit, err)
	}
	e.opSeq.Store(op.Seq)
	e.walOpsSince.Add(1)
	return nil
}

// syncWAL waits until every record logged so far is durable, sharing the
// fsync with concurrent callers (see wal.Log.Sync); without a WAL it does
// nothing. A failure breaks the log until the next checkpoint resets it.
func (e *Engine) syncWAL() error {
	if w := e.cfg.WAL; w != nil {
		if err := w.Sync(); err != nil {
			return fmt.Errorf("%w: %w", errWALCommit, err)
		}
	}
	return nil
}

// maybeCheckpoint triggers an async snapshot + WAL truncation once
// CheckpointEvery operations have accumulated since the last checkpoint. The
// snapshot runs on its own goroutine, so the mutation that crossed the
// threshold does not wait for it, single-flighted by the checkpointing flag.
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

// resetWALLocked rewrites the WAL after a successful snapshot write — the
// checkpoint operation. Snapshots carry the topology, path system, and link
// state but NOT the demand matrix; the log stays the matrix's durability
// home, so the log is rewritten as one submit record of the current matrix
// (sequence number past the snapshot's watermark, so replay applies it).
// wal.Log.Reset writes and fsyncs that seed under its commit barrier, so an
// accept still waiting for its fsync is acknowledged only once the seed that
// carries its demand is durable. Callers hold e.mu, which blocks every
// mutation — the snapshot and the rewrite are one atomic cut of the engine's
// history.
func (e *Engine) resetWALLocked() error {
	w := e.cfg.WAL
	if w == nil {
		return nil
	}
	var seed []byte
	seq := e.opSeq.Load()
	if e.lastSubmitted != nil {
		op := submitOp(e.lastSubmitted)
		op.Seq = seq + 1
		var err error
		if seed, err = json.Marshal(op); err != nil {
			return fmt.Errorf("service: checkpoint re-seeding demand: %w", err)
		}
	}
	if err := w.Reset(seed); err != nil {
		return fmt.Errorf("service: checkpoint resetting wal: %w", err)
	}
	if seed != nil {
		e.opSeq.Store(seq + 1)
	}
	e.walOpsSince.Store(0)
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
	// Skipped counts records dropped: link records already covered by the
	// snapshot watermark (Seq <= serial.Snapshot.WALSeq), duplicates, revoked
	// by a compensating record, refused by step, or undecodable.
	Skipped int
	// Truncated reports whether the log had a torn tail (carried over from
	// the wal.Recovery).
	Truncated bool
	// LastSeq is the highest sequence number seen; the engine's operation
	// counter resumes past it.
	LastSeq uint64
}

// ReplayWAL folds the recovered log over the state the engine is at and
// installs the state it ends in (see fold and install): the exact pre-crash
// demand matrix and link state, and one solve of the final matrix. Call it
// once, after New/Restore and before serving traffic; Open folds the same way
// before the engine exists.
//
// Link records up to the snapshot's WAL watermark (its capacity map holds
// them), records a revoke names (older logs only) and duplicate or
// out-of-order sequence numbers are skipped. Demand records fold whatever
// the watermark, since a snapshot holds no demand: a log a checkpoint did not
// get to reset still gives the demand it stood at.
// Every other record runs through step, the accept path's interpreter: one
// the engine would refuse today — a log left beside a smaller topology,
// corruption that kept its CRC — is skipped and journaled with its sequence
// number, and the records around it still apply. Link records only fold into
// the capacity map, each bumping the version as it did live, and the final
// map is derived once, so a log that ends healthy builds no survivor router.
// Demand records only update the standing matrix.
//
// A torn tail was already truncated by wal.Open; ReplayWAL journals it as a
// wal_truncated event and keeps going — recovery degrades to the last good
// record, never to a refused startup. The only error is the engine's own:
// it was closed.
func (e *Engine) ReplayWAL(rec *wal.Recovery) (*ReplayStats, error) {
	r := fold(e.at(e.links.Load(), e.LastSubmitted()), rec)
	return &r.stats, e.install(r)
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
