package fleet

import (
	"expvar"
	"sort"
	"sync"
	"time"

	"sparseroute/internal/obs"
	"sparseroute/internal/stats"
)

// Metrics is the fleet's registry: fleet-level counters in an expvar.Map
// that /metrics renders next to every resident shard's own registry (see
// prom). Like the engine registry it is private — nothing touches the
// process-global expvar namespace.
type Metrics struct {
	fleet *Fleet
	vars  *expvar.Map

	evictions   expvar.Int // shards snapshotted out of residency
	evictErrors expvar.Int // evictions skipped because the snapshot failed
	coldStarts  expvar.Int // engines built by sampling a topology spec
	warmStarts  expvar.Int // engines restored from a snapshot

	mu   sync.Mutex
	cold *stats.Ring // cold-start latencies, milliseconds
	warm *stats.Ring // warm-start latencies, milliseconds
}

func newMetrics(f *Fleet) *Metrics {
	m := &Metrics{
		fleet: f,
		vars:  new(expvar.Map).Init(),
		cold:  stats.NewRing(64),
		warm:  stats.NewRing(64),
	}
	m.vars.Set("evictions", &m.evictions)
	m.vars.Set("evict_errors", &m.evictErrors)
	m.vars.Set("cold_starts", &m.coldStarts)
	m.vars.Set("warm_starts", &m.warmStarts)
	m.vars.Set("shard_count", expvar.Func(func() any {
		f.mu.Lock()
		defer f.mu.Unlock()
		return len(f.shards)
	}))
	m.vars.Set("resident_shards", expvar.Func(func() any {
		return f.resident()
	}))
	m.vars.Set("max_resident", expvar.Func(func() any {
		return f.cfg.MaxResident
	}))
	// The shared pool's cross-shard queue depth: resident shards whose solver
	// task is waiting for a worker (each shard queues at most one).
	m.vars.Set("queue_depth", expvar.Func(func() any {
		return f.pool.Pending()
	}))
	// Shed demand mutations (tenant quota + inflight budget) rolled
	// up across resident shards. Per-shard detail lives in each shard's
	// nested registry; this fleet gauge is what an operator alerts on.
	// Evicted shards' counts leave the rollup with them — the gauge tracks
	// the resident fleet, not all history.
	m.vars.Set("shed_requests", expvar.Func(func() any {
		return m.shedRequests()
	}))
	m.vars.Set("cold_start_ms", expvar.Func(func() any {
		return m.window(m.cold)
	}))
	m.vars.Set("warm_start_ms", expvar.Func(func() any {
		return m.window(m.warm)
	}))
	return m
}

// shedRequests sums shed mutations over every resident shard, holding each
// shard's read lock across its engine access (same discipline as health:
// eviction must not close an engine mid-read).
func (m *Metrics) shedRequests() (total int64) {
	f := m.fleet
	f.mu.Lock()
	list := make([]*shard, 0, len(f.shards))
	for _, sh := range f.shards {
		list = append(list, sh)
	}
	f.mu.Unlock()
	for _, sh := range list {
		sh.mu.RLock()
		if sh.engine != nil {
			total += sh.engine.Metrics().ShedRequests()
		}
		sh.mu.RUnlock()
	}
	return total
}

// observeBuild records one residency build: restored=true is a warm start
// from a snapshot, false a cold start sampled from the topology spec.
func (m *Metrics) observeBuild(d time.Duration, restored bool) {
	ms := float64(d) / float64(time.Millisecond)
	m.mu.Lock()
	if restored {
		m.warm.Push(ms)
	} else {
		m.cold.Push(ms)
	}
	m.mu.Unlock()
	if restored {
		m.warmStarts.Add(1)
	} else {
		m.coldStarts.Add(1)
	}
}

func (m *Metrics) window(r *stats.Ring) map[string]float64 {
	m.mu.Lock()
	xs := r.Values()
	m.mu.Unlock()
	return map[string]float64{
		"count": float64(len(xs)),
		"mean":  stats.Mean(xs),
		"p50":   stats.Quantile(xs, 0.5),
		"p99":   stats.Quantile(xs, 0.99),
		"max":   stats.Max(xs),
	}
}

// prom renders the fleet rollup in the Prometheus text exposition format:
// fleet counters under sparseroute_fleet_*, every resident shard's engine
// registry under sparseroute_engine_* with a topo label, and a
// sparseroute_shard_resident gauge covering every discovered shard. Each
// shard renders under its read lock so a concurrent eviction cannot close
// the engine while its gauges are being evaluated.
func (m *Metrics) prom() *obs.Prom {
	f := m.fleet
	f.mu.Lock()
	list := make([]*shard, 0, len(f.shards))
	for _, sh := range f.shards {
		list = append(list, sh)
	}
	f.mu.Unlock()
	sort.Slice(list, func(i, j int) bool { return list[i].id < list[j].id })

	p := obs.NewProm()
	p.FromVars("sparseroute_fleet", nil, m.vars)
	for _, sh := range list {
		sh.mu.RLock()
		resident := sh.engine != nil
		if resident {
			p.FromVars("sparseroute_engine", map[string]string{"topo": sh.id}, sh.engine.Metrics().Vars())
		}
		sh.mu.RUnlock()
		v := 0.0
		if resident {
			v = 1
		}
		p.Gauge("sparseroute_shard_resident", map[string]string{"topo": sh.id}, v)
	}
	return p
}
