package service

import (
	"encoding/json"
	"fmt"
	"maps"

	"sparseroute/internal/core"
	"sparseroute/internal/demand"
	"sparseroute/internal/obs"
	"sparseroute/internal/wal"
)

// state is what the log means: a value over the immutable startup sample,
// of which everything the engine serves is a function. The live engine holds
// it as its published linkState, its standing demand and its operation
// counter, and writes all three under e.mu, the one lock every record is
// stepped, sequenced, logged and applied under; replay folds whole states.
type state struct {
	// system is the startup path system; its graph is the topology records
	// are checked against.
	system *core.PathSystem
	// capacity is the capacity-override map (see linkState.capacity) and
	// version the link version, bumped by every record that changes it.
	capacity map[int]float64
	version  uint64
	// demand is the standing demand matrix, nil before the first submit.
	demand *demand.Demand
	// seq is the sequence number of the last record applied.
	seq uint64
}

// at returns the state e is at: the link state ls, the standing demand d and
// the operation counter. A link event passes a nil d: its record never reads
// the demand.
func (e *Engine) at(ls *linkState, d *demand.Demand) state {
	return state{system: e.original, capacity: ls.capacity, version: ls.version, demand: d, seq: e.opSeq.Load()}
}

// step applies one record to s and returns the state it leads to, with the
// pairs a patch named (the delta solve's work list). It is the one
// interpreter of records: live accept and every replay step with it, so a
// record means the same thing the day it is accepted and the day it is
// replayed. A link record folds into the capacity map (see nextCapacity) and
// bumps the version only when it changes the map. A demand record builds the
// next matrix (see applyDemandOp), provided the startup sample has
// candidates for every pair it assigns; that answers for the whole matrix,
// since a patch's base was checked when it was accepted. A refused record
// leaves s as it was. The log position is fold's: step leaves seq alone.
func step(s state, op *walOp) (state, []demand.Pair, error) {
	g := s.system.Graph()
	if op.Op == walOpLinks {
		capacity, err := nextCapacity(g.NumEdges(), s.capacity, op)
		if err != nil {
			return s, nil, err
		}
		if !maps.Equal(capacity, s.capacity) {
			s.capacity, s.version = capacity, s.version+1
		}
		return s, nil, nil
	}
	next, touched, err := applyDemandOp(s.demand, op, g.NumVertices())
	if err != nil {
		return s, nil, err
	}
	for _, assigned := range [2][]PairAmount{op.Entries, op.Set} {
		for _, en := range assigned {
			if s.system.NumSampled(demand.MakePair(en.U, en.V)) == 0 {
				return s, nil, fmt.Errorf("service: demand has pairs with no candidate paths")
			}
		}
	}
	s.demand = next
	return s, touched, nil
}

// replay is a log folded over a state: where the fold started and ended, and
// what install reports about the records.
type replay struct {
	from, to state
	// rec is the folded log, nil when there is none.
	rec   *wal.Recovery
	stats ReplayStats
	// refused holds the journal detail of each record step refused, in log
	// order.
	refused []map[string]any
}

// fold steps s through rec's records (see ReplayWAL for the discipline).
// It is pure: nothing is journaled or published until install.
func fold(s state, rec *wal.Recovery) *replay {
	r := &replay{from: s, to: s, rec: rec, stats: ReplayStats{LastSeq: s.seq}}
	if rec == nil {
		return r
	}
	r.stats.Truncated = rec.Truncated
	ops := make([]*walOp, 0, len(rec.Records))
	revoked := make(map[uint64]bool)
	for _, raw := range rec.Records {
		op := new(walOp)
		if err := json.Unmarshal(raw, op); err != nil {
			r.stats.Skipped++
			continue
		}
		r.stats.LastSeq = max(r.stats.LastSeq, op.Seq)
		if op.Op == walOpRevoke {
			revoked[op.Ref] = true
			continue
		}
		ops = append(ops, op)
	}
	// A snapshot holds the capacity map but no demand, so only link records
	// at or below its watermark are in it; demand records fold whatever the
	// watermark, or a crash between a checkpoint's snapshot and its log
	// reset would reopen with no demand. A seq at or below one already seen
	// is a duplicate.
	var last uint64
	for _, op := range ops {
		dup := op.Seq <= last
		last = max(last, op.Seq)
		if dup || revoked[op.Seq] || (op.Op == walOpLinks && op.Seq <= r.from.seq) {
			r.stats.Skipped++
			continue
		}
		next, _, err := step(r.to, op)
		if err != nil {
			r.stats.Skipped++
			r.refused = append(r.refused, map[string]any{
				"seq": op.Seq,
				"err": fmt.Sprintf("wal replay: op %d (%s): %v", op.Seq, op.Op, err),
			})
			continue
		}
		next.seq = max(next.seq, op.Seq)
		r.to = next
		r.stats.Applied++
	}
	return r
}

// install brings e to the state r ends in, once: it derives the link state of
// the final capacity map, sets the standing demand and resumes the operation
// counter past everything the log holds, and puts one solve of the demand in
// the slot, all under e.mu. The link state is published as one replace event
// of the final map when the fold or a degraded snapshot moved it off the
// startup sample; a healthy snapshot only sets its version. With a log,
// install reports a torn tail, journals every refused record with its seq,
// and counts one replay.
func (e *Engine) install(r *replay) error {
	var interim func()
	defer func() {
		// Deferred first, so it runs after e.mu is released.
		if interim != nil {
			interim()
		}
	}()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return errClosed
	}
	if r.stats.Truncated {
		e.metrics.walTruncations.Add(1)
		e.record(obs.EventWALTruncated, map[string]any{
			"dropped_bytes": r.rec.DroppedBytes,
			"good_bytes":    r.rec.GoodBytes,
			"records":       len(r.rec.Records),
		})
	}
	for _, detail := range r.refused {
		e.record(obs.EventSolveFailure, detail)
	}

	s, cur := r.to, e.links.Load()
	if s.version != cur.version || !maps.Equal(s.capacity, cur.capacity) {
		ev := e.deriveLinks(s.version, s.capacity)
		if s.version == r.from.version && len(s.capacity) == 0 {
			e.links.Store(ev.next)
		} else {
			_, interim = e.publishLinksLocked(cur, ev, &walOp{Op: walOpLinks, Replace: true, Fail: ev.next.failedIDs, Caps: ev.next.degradedCaps})
		}
	}

	e.opSeq.Store(max(e.opSeq.Load(), r.stats.LastSeq))
	e.lastSubmitted = s.demand
	if s.demand != nil {
		if _, err := e.putLocked(&epochRequest{d: s.demand}); err != nil {
			return fmt.Errorf("service: replay re-solve: %w", err)
		}
	}
	if r.rec != nil {
		e.metrics.walReplays.Add(1)
		e.record(obs.EventWALReplay, map[string]any{
			"applied":   r.stats.Applied,
			"skipped":   r.stats.Skipped,
			"last_seq":  r.stats.LastSeq,
			"truncated": r.stats.Truncated,
		})
	}
	return nil
}
