// Package obs is the serving stack's observability substrate: epoch
// lifecycle traces, a time-ordered event journal, and the Prometheus text
// exposition /metrics renders the engine and fleet registries in.
//
// The aggregate counters on /metrics answer "how many" but never "where
// did epoch 4812 spend its 900 ms" or "what sequence of link events preceded
// this health transition". This package answers both without adding a
// dependency: everything is bounded rings behind small mutexes, cheap enough
// to thread through the hot solve path, and rendered on demand by the HTTP
// layer (/debug/trace, /debug/events, /metrics).
//
// In the Kulfi/SMORE framing the serving loop is an operational TE system
// with demand revealed every ~15 s — the per-epoch latency breakdown (queue
// wait on the shared fair pool, per-attempt solve chain, MWU rounds, publish
// time) is the core operator signal, and the warm-start work on the roadmap
// is judged against exactly these phase timings.
package obs

import (
	"sync"
	"time"
)

// Event is one journal entry: a structured record of something that changed
// the serving state, time-ordered by a per-journal sequence number.
type Event struct {
	// Seq orders events within one journal (strictly increasing, never
	// reused, so a gap reveals eviction from the bounded ring).
	Seq uint64 `json:"seq"`
	// Time is the wall-clock instant the event was recorded.
	Time time.Time `json:"time"`
	// Type is one of the Event* constants.
	Type string `json:"type"`
	// Shard tags the topology the event belongs to; empty for fleet-level
	// or single-engine events.
	Shard string `json:"shard,omitempty"`
	// Detail is the event's structured payload. Treated as immutable once
	// recorded.
	Detail map[string]any `json:"detail,omitempty"`
}

// Journal event types.
const (
	// EventLink is a topology event: edges failed, restored, or set.
	EventLink = "link"
	// EventCapacity is a partial-capacity (brownout) override event.
	EventCapacity = "capacity"
	// EventHealth is a health state transition (ok/degraded/closed).
	EventHealth = "health"
	// EventWidening is a proactive-recovery widening decision, with the
	// per-pair trigger (single-survivor).
	EventWidening = "widening"
	// EventSolveFailure is an epoch whose whole solve chain failed (the
	// stale routing kept serving).
	EventSolveFailure = "solve_failure"
	// EventEviction is a shard snapshotted out of fleet residency.
	EventEviction = "eviction"
	// EventReload is a shard made resident (cold build or warm restore).
	EventReload = "reload"
	// EventDrain is a fleet drain (Close) start.
	EventDrain = "drain"
	// EventWALTruncated is a torn WAL tail dropped at startup: the log was
	// cut back to its last intact frame and serving continued.
	EventWALTruncated = "wal_truncated"
	// EventWALReplay is a completed WAL replay: the engine reconstructed its
	// pre-crash demand matrix and link state from the log.
	EventWALReplay = "wal_replay"
	// EventCheckpoint is a durable checkpoint: snapshot written, WAL
	// truncated.
	EventCheckpoint = "checkpoint"
)

// Journal is a bounded, concurrency-safe, time-ordered ring of Events. One
// journal serves a single engine; a fleet shares one journal across every
// shard (events tagged per shard), so the record survives shard eviction and
// a post-incident reconstruction reads one ordered stream.
type Journal struct {
	mu   sync.Mutex
	buf  []Event
	next int // index the next Record writes
	n    int // live entries (<= cap)
	seq  uint64
}

// NewJournal returns a journal retaining at most depth events (minimum 1).
func NewJournal(depth int) *Journal {
	if depth < 1 {
		depth = 1
	}
	return &Journal{buf: make([]Event, depth)}
}

// Record appends an untagged (fleet/single-engine) event.
func (j *Journal) Record(typ string, detail map[string]any) {
	j.RecordShard("", typ, detail)
}

// RecordShard appends an event tagged with the shard it belongs to. detail is
// retained as-is and must not be mutated afterwards.
func (j *Journal) RecordShard(shard, typ string, detail map[string]any) {
	j.mu.Lock()
	j.seq++
	j.buf[j.next] = Event{Seq: j.seq, Time: time.Now(), Type: typ, Shard: shard, Detail: detail}
	j.next = (j.next + 1) % len(j.buf)
	if j.n < len(j.buf) {
		j.n++
	}
	j.mu.Unlock()
}

// Events returns the retained events, oldest first, as a fresh slice.
func (j *Journal) Events() []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, 0, j.n)
	if j.n < len(j.buf) {
		return append(out, j.buf[:j.n]...)
	}
	out = append(out, j.buf[j.next:]...)
	return append(out, j.buf[:j.next]...)
}

// EventsFor returns the retained events tagged with the given shard, oldest
// first.
func (j *Journal) EventsFor(shard string) []Event {
	all := j.Events()
	out := make([]Event, 0, len(all))
	for _, ev := range all {
		if ev.Shard == shard {
			out = append(out, ev)
		}
	}
	return out
}

// Seq returns the sequence number of the most recently recorded event (0
// when nothing was ever recorded).
func (j *Journal) Seq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}
