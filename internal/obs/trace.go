package obs

import (
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// Attempt is one stage of an epoch's solve chain: the incremental delta
// solve, the cold adaptation, or the renormalization over survivors of a
// link event's interim publish.
type Attempt struct {
	// Stage is "delta", "adapt", or "renormalize".
	Stage string `json:"stage"`
	// Ms is the stage's wall time in milliseconds.
	Ms float64 `json:"ms"`
	// OK reports whether the stage produced a routing.
	OK bool `json:"ok"`
	// Err is the stage's error when it failed.
	Err string `json:"err,omitempty"`
}

// EpochTrace is the lifecycle record of one demand epoch: where its latency
// went, phase by phase. Records are immutable once handed to Tracer.Record.
type EpochTrace struct {
	// Epoch is the submission sequence number.
	Epoch uint64 `json:"epoch"`
	// Start is when the solve began running on its worker.
	Start time.Time `json:"start"`
	// QueueWaitMs is the time the epoch spent queued between submission and
	// its worker picking it up (the fair-pool wait under contention).
	QueueWaitMs float64 `json:"queue_wait_ms"`
	// Solver is the last solver the adaptation step ran: "exact" (simplex
	// LP) or "mwu". Empty when no solver ran (coverage error, test seam).
	Solver string `json:"solver,omitempty"`
	// Attempts is the solve chain, one entry per stage actually run.
	Attempts []Attempt `json:"attempts,omitempty"`
	// MWURounds is the last MWU round the progress callback reported, 0 when
	// the epoch solved without MWU.
	MWURounds int `json:"mwu_rounds,omitempty"`
	// ConvergenceGap is the relative change of the MWU congestion estimate
	// between the last two progress samples — a small value means extra
	// rounds were no longer buying congestion.
	ConvergenceGap float64 `json:"convergence_gap,omitempty"`
	// SolveMs is the time before the publish: all attempts plus the cold
	// solve's load and congestion pass, or the interim's renormalization.
	SolveMs float64 `json:"solve_ms"`
	// PublishMs is installing the new state for lock-free readers.
	PublishMs float64 `json:"publish_ms"`
	// TotalMs is queue exit to published outcome.
	TotalMs float64 `json:"total_ms"`
	// Outcome is "solved", "fallback" (stale routing kept serving),
	// "canceled" (deadline or Close), or "renormalized" (the interim
	// publish after a topology event).
	Outcome string `json:"outcome"`
	// Congestion is the published routing's max congestion when solved.
	Congestion float64 `json:"congestion,omitempty"`
	// Retries counts solve attempts beyond the first.
	Retries int `json:"retries,omitempty"`
	// DroppedPairs counts demand pairs excluded for lack of surviving
	// candidates.
	DroppedPairs int `json:"dropped_pairs,omitempty"`
	// WarmStart tags the epoch's solve: "delta" (incremental touched-pair
	// solve) or "cold" (from scratch). Empty when no solve ran (interim
	// renormalized publishes).
	WarmStart string `json:"warm_start,omitempty"`
	// TouchedPairs counts the pairs a delta epoch re-solved; 0 on full
	// epochs.
	TouchedPairs int `json:"touched_pairs,omitempty"`
}

// WarmStart tags for EpochTrace.WarmStart.
const (
	WarmDelta = "delta"
	WarmCold  = "cold"
)

// Trace outcomes.
const (
	OutcomeSolved       = "solved"
	OutcomeFallback     = "fallback"
	OutcomeCanceled     = "canceled"
	OutcomeRenormalized = "renormalized"
)

// SolveProgress is the in-flight view of a running MWU solve, updated from
// the solver's progress callback and read lock-free by /debug/trace — the
// "what is that worker doing right now" signal.
type SolveProgress struct {
	Epoch uint64 `json:"epoch"`
	// Round is the MWU round counter.
	Round int `json:"round"`
	// Congestion is the current estimate of the averaged routing's max
	// congestion.
	Congestion float64 `json:"congestion"`
}

// Tracer retains the most recent completed epoch traces in a bounded ring
// and emits a structured log line for epochs slower than a configured
// threshold. Safe for concurrent use.
type Tracer struct {
	mu   sync.Mutex
	buf  []*EpochTrace
	next int
	n    int

	slow   time.Duration
	logger *slog.Logger

	inflight atomic.Pointer[SolveProgress]
}

// NewTracer returns a tracer retaining at most depth traces (minimum 1).
// Epochs whose TotalMs exceeds slow emit one structured warning via logger
// (nil logger means slog.Default); slow <= 0 disables the log.
func NewTracer(depth int, slow time.Duration, logger *slog.Logger) *Tracer {
	if depth < 1 {
		depth = 1
	}
	if logger == nil {
		logger = slog.Default()
	}
	return &Tracer{buf: make([]*EpochTrace, depth), slow: slow, logger: logger}
}

// Record retains tr and reports whether it crossed the slow-solve threshold
// (after emitting the structured log line). tr must not be mutated after the
// call.
func (t *Tracer) Record(tr *EpochTrace) bool {
	t.mu.Lock()
	t.buf[t.next] = tr
	t.next = (t.next + 1) % len(t.buf)
	if t.n < len(t.buf) {
		t.n++
	}
	t.mu.Unlock()
	slow := t.slow > 0 && tr.TotalMs >= float64(t.slow)/float64(time.Millisecond)
	if slow {
		t.logger.Warn("slow epoch",
			slog.Uint64("epoch", tr.Epoch),
			slog.String("outcome", tr.Outcome),
			slog.Float64("queue_wait_ms", tr.QueueWaitMs),
			slog.Float64("solve_ms", tr.SolveMs),
			slog.Float64("publish_ms", tr.PublishMs),
			slog.Float64("total_ms", tr.TotalMs),
			slog.Int("mwu_rounds", tr.MWURounds),
			slog.Int("attempts", len(tr.Attempts)),
			slog.Int("retries", tr.Retries),
			slog.String("solver", tr.Solver),
		)
	}
	return slow
}

// Traces returns up to n retained traces, newest first (n <= 0 means all).
func (t *Tracer) Traces(n int) []*EpochTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 || n > t.n {
		n = t.n
	}
	out := make([]*EpochTrace, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, t.buf[((t.next-i)%len(t.buf)+len(t.buf))%len(t.buf)])
	}
	return out
}

// SetProgress publishes the in-flight solve progress (last writer wins when
// several workers solve concurrently).
func (t *Tracer) SetProgress(p *SolveProgress) { t.inflight.Store(p) }

// ClearProgress drops the in-flight progress if it still belongs to epoch —
// a concurrent worker's fresher progress is left alone.
func (t *Tracer) ClearProgress(epoch uint64) {
	if p := t.inflight.Load(); p != nil && p.Epoch == epoch {
		t.inflight.CompareAndSwap(p, nil)
	}
}

// Progress returns the in-flight solve progress, nil when no MWU solve is
// reporting.
func (t *Tracer) Progress() *SolveProgress { return t.inflight.Load() }
