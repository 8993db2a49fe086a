package service

import (
	"expvar"
	"fmt"

	"sparseroute/internal/obs"
	"sparseroute/internal/stats"
)

// Metrics is the engine's registry, kept in an expvar.Map that /metrics
// flattens into Prometheus text exposition. Counters are expvar types
// (atomic); gauges are expvar.Func closures computed at scrape time, and the
// latency, congestion and queue-wait windows among them summarize the
// epoch traces the engine's tracer retains for /debug/trace, so both
// surfaces describe the same epochs. The registry is private to its engine —
// nothing is published to the process-global expvar namespace, so tests and
// multi-engine processes never collide.
type Metrics struct {
	vars *expvar.Map

	received       expvar.Int // epochs put in the slot (accepted mutations and link re-adapts)
	superseded     expvar.Int // epochs replaced in the slot by a newer one before solving
	solved         expvar.Int // epochs solved and published
	failed         expvar.Int // epochs whose solve errored
	deadlineMissed expvar.Int // epochs whose solve blew the deadline
	canceled       expvar.Int // solves stopped mid-flight (deadline or Close)
	fallbacks      expvar.Int // total epochs served by the stale routing
	lastCongestion expvar.Float

	linkEvents         expvar.Int // applied topology events (fail/restore/set/capacity)
	capacityEvents     expvar.Int // applied events carrying a partial-capacity override
	recoveryResamples  expvar.Int // link events that drew fresh recovery paths
	recoveryPaths      expvar.Int // total recovery paths installed
	recoveryFailed     expvar.Int // recovery passes that errored (pairs stay uncovered/at risk)
	survivorBuilds     expvar.Int // survivor-graph routers built for recovery/widening
	proactiveResamples expvar.Int // events whose proactive pass widened at-risk pairs
	proactivePaths     expvar.Int // total unique paths installed proactively
	solveRetries       expvar.Int // delta solves that fell through to a cold solve
	renormalizedServes expvar.Int // interim renormalized publishes after link events
	slowSolves         expvar.Int // epochs over Config.SlowSolveThreshold

	patches     expvar.Int // accepted PATCH /v1/demand delta submissions
	deltaEpochs expvar.Int // epochs solved by the incremental delta fast path

	walReplays     expvar.Int // completed WAL replays (startup recovery)
	walTruncations expvar.Int // torn WAL tails dropped at startup
	checkpoints    expvar.Int // snapshot + WAL truncation checkpoints
	solvePanics    expvar.Int // solver panics recovered in the epoch worker

	// Overload protection (admission control).
	shedRequests    expvar.Int // every shed mutation: rate-limited + inflight budget
	rateLimited     expvar.Int // mutations shed by the token-bucket rate limit (429)
	inflightRejects expvar.Int // requests shed by the inflight-bytes budget (429)
	bodyTooLarge    expvar.Int // request bodies over MaxBodyBytes (413)
}

func newMetrics(e *Engine) *Metrics {
	m := &Metrics{vars: new(expvar.Map).Init()}
	m.vars.Set("epochs_received", &m.received)
	m.vars.Set("epochs_superseded", &m.superseded)
	m.vars.Set("epochs_solved", &m.solved)
	m.vars.Set("epochs_failed", &m.failed)
	m.vars.Set("solve_deadline_missed", &m.deadlineMissed)
	m.vars.Set("solves_canceled", &m.canceled)
	m.vars.Set("fallbacks", &m.fallbacks)
	m.vars.Set("last_congestion", &m.lastCongestion)
	m.vars.Set("link_events", &m.linkEvents)
	m.vars.Set("capacity_events", &m.capacityEvents)
	m.vars.Set("recovery_resamples", &m.recoveryResamples)
	m.vars.Set("recovery_paths", &m.recoveryPaths)
	m.vars.Set("recovery_failed", &m.recoveryFailed)
	m.vars.Set("survivor_builds", &m.survivorBuilds)
	m.vars.Set("proactive_resamples", &m.proactiveResamples)
	m.vars.Set("proactive_paths", &m.proactivePaths)
	m.vars.Set("solve_retries", &m.solveRetries)
	m.vars.Set("renormalized_serves", &m.renormalizedServes)
	m.vars.Set("slow_solves", &m.slowSolves)
	m.vars.Set("demand_patches", &m.patches)
	m.vars.Set("delta_epochs", &m.deltaEpochs)
	m.vars.Set("wal_replays", &m.walReplays)
	m.vars.Set("wal_truncations", &m.walTruncations)
	m.vars.Set("checkpoints", &m.checkpoints)
	m.vars.Set("solve_panics", &m.solvePanics)
	m.vars.Set("shed_requests", &m.shedRequests)
	m.vars.Set("rate_limited", &m.rateLimited)
	m.vars.Set("inflight_rejects", &m.inflightRejects)
	m.vars.Set("body_too_large", &m.bodyTooLarge)
	m.vars.Set("inflight_bytes", expvar.Func(func() any {
		return e.inflight.admitted()
	}))
	m.vars.Set("wal_records", expvar.Func(func() any {
		if w := e.cfg.WAL; w != nil {
			return w.Records()
		}
		return 0
	}))
	m.vars.Set("wal_bytes", expvar.Func(func() any {
		if w := e.cfg.WAL; w != nil {
			return w.Bytes()
		}
		return 0
	}))
	m.vars.Set("failed_edges", expvar.Func(func() any {
		return len(e.links.Load().failed)
	}))
	m.vars.Set("degraded_edges", expvar.Func(func() any {
		return len(e.links.Load().degradedCaps)
	}))
	m.vars.Set("uncovered_pairs", expvar.Func(func() any {
		return len(e.links.Load().uncovered)
	}))
	m.vars.Set("at_risk_pairs", expvar.Func(func() any {
		return len(e.links.Load().atRisk)
	}))
	m.vars.Set("link_version", expvar.Func(func() any {
		return e.links.Load().version
	}))
	m.vars.Set("degraded_seconds", expvar.Func(func() any {
		return e.links.Load().degradedSeconds()
	}))
	m.vars.Set("active_epoch", expvar.Func(func() any {
		if s := e.Active(); s != nil {
			return s.Epoch
		}
		return 0
	}))
	// The windows cover the epochs the tracer retains (Config.TraceDepth):
	// solve latency and congestion over the solved ones, queue wait over
	// every epoch that queued, which is all but the interim renormalized
	// publishes of link events.
	m.vars.Set("solve_latency_seconds", expvar.Func(func() any {
		return window(e.tracer.Traces(0), func(t *obs.EpochTrace) (float64, bool) {
			return t.SolveMs / 1000, t.Outcome == obs.OutcomeSolved
		})
	}))
	m.vars.Set("congestion", expvar.Func(func() any {
		return window(e.tracer.Traces(0), func(t *obs.EpochTrace) (float64, bool) {
			return t.Congestion, t.Outcome == obs.OutcomeSolved
		})
	}))
	m.vars.Set("queue_wait_seconds", expvar.Func(func() any {
		return window(e.tracer.Traces(0), func(t *obs.EpochTrace) (float64, bool) {
			return t.QueueWaitMs / 1000, t.Outcome != obs.OutcomeRenormalized
		})
	}))
	// The path system is no longer fixed for the engine's lifetime: recovery
	// resampling installs fresh paths and pruning shrinks the serving set,
	// so the summary is read from the current link state, counted once per
	// version by its first scrape. The counts are plain passes over the
	// paths: the candidate dedup and disjointness maps of
	// core.PathSystem.Stats cost tens of milliseconds on a 600-pair system.
	// Duplicates share their hop count, so MaxHops over sampled paths equals
	// Stats' over distinct ones, and the installed pair set never changes
	// (see Engine.pairs).
	m.vars.Set("path_system", expvar.Func(func() any {
		ls := e.links.Load()
		s := &ls.sizes
		s.once.Do(func() {
			s.total, s.serving = ls.installed.TotalPaths(), ls.serving.TotalPaths()
			s.sparsity, s.maxHops = ls.installed.Sparsity(), ls.installed.MaxHops()
		})
		return map[string]any{
			"hash":          fmt.Sprintf("%016x", ls.digest(e.pairs)),
			"router":        e.cfg.RouterName,
			"r":             e.cfg.R,
			"seed":          e.cfg.Seed,
			"pairs":         len(e.pairs),
			"total_paths":   s.total,
			"serving_paths": s.serving,
			"sparsity":      s.sparsity,
			"max_hops":      s.maxHops,
		}
	}))
	return m
}

// window summarizes the values pick selects from traces as scrape-time
// quantiles.
func window(traces []*obs.EpochTrace, pick func(*obs.EpochTrace) (float64, bool)) map[string]float64 {
	xs := make([]float64, 0, len(traces))
	for _, t := range traces {
		if x, ok := pick(t); ok {
			xs = append(xs, x)
		}
	}
	return map[string]float64{
		"count": float64(len(xs)),
		"mean":  stats.Mean(xs),
		"p50":   stats.Quantile(xs, 0.5),
		"p90":   stats.Quantile(xs, 0.9),
		"p99":   stats.Quantile(xs, 0.99),
		"max":   stats.Max(xs),
	}
}

// Vars exposes the underlying registry for structured walkers (the /metrics
// Prometheus translation). Gauges are expvar.Func closures computed at call
// time; the map itself is safe for concurrent iteration.
func (m *Metrics) Vars() *expvar.Map { return m.vars }

// ShedRequests reports the engine's shed mutations — rate limit and inflight
// budget rejections — for fleet-level rollups.
func (m *Metrics) ShedRequests() int64 { return m.shedRequests.Value() }
