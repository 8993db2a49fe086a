package service

import (
	"sync"
	"time"

	"sparseroute/internal/core"
	"sparseroute/internal/obs"
)

// ms converts a duration to float milliseconds, the unit trace records use.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msSince(t time.Time) float64 { return ms(time.Since(t)) }

// solveMonitor collects solver-side signals for one epoch's trace: which
// solver ran, the MWU round counter, and the last two congestion estimates
// (whose relative change is the convergence gap). The MWU progress callback
// fires from the solver loop, so updates go through a small mutex; the
// in-flight view is mirrored into the tracer for /debug/trace.
type solveMonitor struct {
	epoch  uint64
	tracer *obs.Tracer

	mu      sync.Mutex
	solver  string
	rounds  int
	prev    float64
	last    float64
	samples int
}

func (m *solveMonitor) onSolver(solver string) {
	m.mu.Lock()
	m.solver = solver
	m.mu.Unlock()
}

func (m *solveMonitor) onProgress(round int, congestion float64) {
	m.mu.Lock()
	m.rounds = round
	m.prev, m.last = m.last, congestion
	m.samples++
	m.mu.Unlock()
	m.tracer.SetProgress(&obs.SolveProgress{Epoch: m.epoch, Round: round, Congestion: congestion})
}

// fill copies the collected signals into the finished trace; a nil monitor
// (no solver ran) fills nothing.
func (m *solveMonitor) fill(tr *obs.EpochTrace) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	tr.Solver = m.solver
	tr.MWURounds = m.rounds
	if m.samples >= 2 && m.last > 0 {
		gap := (m.last - m.prev) / m.last
		if gap < 0 {
			gap = -gap
		}
		tr.ConvergenceGap = gap
	}
}

// instrumented returns fresh default adaptation options carrying the
// monitor's per-epoch observability callbacks.
func instrumented(mon *solveMonitor) *core.AdaptOptions {
	o := &core.AdaptOptions{OnSolver: mon.onSolver}
	o.MWU.Progress = mon.onProgress
	return o
}

// Tracer returns the engine's epoch-trace ring.
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// Events returns the engine's journal entries, oldest first — restricted to
// this engine's shard tag when it records into a fleet-shared journal.
func (e *Engine) Events() []obs.Event {
	if e.shard != "" {
		return e.journal.EventsFor(e.shard)
	}
	return e.journal.Events()
}

// record appends an event to the engine's journal under its shard tag.
func (e *Engine) record(typ string, detail map[string]any) {
	e.journal.RecordShard(e.shard, typ, detail)
}
