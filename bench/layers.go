package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sparseroute/internal/core"
	"sparseroute/internal/demand"
	"sparseroute/internal/fleet"
	"sparseroute/internal/flow"
	"sparseroute/internal/frt"
	"sparseroute/internal/graph"
	"sparseroute/internal/lp"
	"sparseroute/internal/mcf"
	"sparseroute/internal/oblivious"
	"sparseroute/internal/obs"
	"sparseroute/internal/par"
	"sparseroute/internal/serial"
	"sparseroute/internal/service"
	"sparseroute/internal/wal"
)

// The traced run calls each layer's public functions in-process, on the
// workload's topology and seeded inputs, one span per call. Spans inside the
// program are a later change; until then a parent/child pair exists only
// where a public seam exposes the boundary (core.Adapt's OnSolver hook, the
// engine's own EpochTrace).

// perLayer mirrors BENCHMARK.json's per_layer list (a test keeps the two in
// step). README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	{name: "graph.dijkstra_us", unit: "us"},
	{name: "graph.remove_edges_us", unit: "us"},
	{name: "frt.build_ms", unit: "ms"},
	{name: "frt.route_us", unit: "us"},
	{name: "oblivious.build_ms", unit: "ms"},
	{name: "oblivious.sample_us", unit: "us"},
	{name: "oblivious.survivors_build_ms", unit: "ms"},
	{name: "core.rsample_ms", unit: "ms"},
	{name: "core.paths_total", unit: "count"},
	{name: "core.adapt_ms", unit: "ms"},
	{name: "core.adapt_self_ms", unit: "ms"},
	{name: "core.adapt_allocs", unit: "count"},
	{name: "core.adapt_delta_ms", unit: "ms"},
	{name: "core.candidate_weights_ms", unit: "ms"},
	{name: "core.without_edges_ms", unit: "ms"},
	{name: "core.competitive_ratio", unit: "ratio"},
	{name: "mcf.mwu_ms", unit: "ms"},
	{name: "mcf.mwu_rounds", unit: "count"},
	{name: "mcf.mwu_us_per_round", unit: "us"},
	{name: "mcf.mwu_allocs", unit: "count"},
	{name: "mcf.mwu_bytes", unit: "B"},
	{name: "mcf.warm_ms", unit: "ms"},
	{name: "mcf.exact_ms", unit: "ms"},
	{name: "mcf.dual_lb_ms", unit: "ms"},
	{name: "lp.solve_ms", unit: "ms"},
	{name: "lp.rows", unit: "count"},
	{name: "lp.cols", unit: "count"},
	{name: "serial.decode_demand_us", unit: "us"},
	{name: "serial.demand_bytes", unit: "B"},
	{name: "serial.encode_routing_ms", unit: "ms"},
	{name: "serial.routing_bytes", unit: "B"},
	{name: "serial.encode_snapshot_ms", unit: "ms"},
	{name: "serial.decode_snapshot_ms", unit: "ms"},
	{name: "serial.snapshot_bytes", unit: "B"},
	{name: "serial.hash_ms", unit: "ms"},
	{name: "wal.append_us", unit: "us"},
	{name: "wal.commit_us", unit: "us"},
	{name: "wal.record_bytes", unit: "B"},
	{name: "wal.scan_ms", unit: "ms"},
	{name: "par.submit_us", unit: "us"},
	{name: "obs.prom_write_ms", unit: "ms"},
	{name: "service.submit_wait_ms", unit: "ms"},
	{name: "service.patch_wait_ms", unit: "ms"},
	{name: "service.fail_edges_ms", unit: "ms"},
	{name: "service.restore_edges_ms", unit: "ms"},
	{name: "service.op_self_ms", unit: "ms"},
	{name: "service.queue_wait_us", unit: "us"},
	{name: "service.solve_ms", unit: "ms"},
	{name: "service.publish_us", unit: "us"},
	{name: "service.delta_share", unit: "ratio", higher: true},
	{name: "service.retries", unit: "count"},
	{name: "service.fallbacks", unit: "count"},
	{name: "service.read_routing_ms", unit: "ms"},
	{name: "service.read_paths_us", unit: "us"},
	{name: "service.scrape_ms", unit: "ms"},
	{name: "service.snapshot_ms", unit: "ms"},
	{name: "service.restore_ms", unit: "ms"},
	{name: "service.replay_ms", unit: "ms"},
	{name: "service.read_p99_ms", unit: "ms"},
	{name: "service.epoch_p95_ms", unit: "ms"},
	{name: "http.overhead_us", unit: "us"},
	{name: "fleet.open_ms", unit: "ms"},
	{name: "fleet.evict_ms", unit: "ms"},
	{name: "fleet.reload_ms", unit: "ms"},
	{name: "machine.spin_ms", unit: "ms"},
	{name: "trace.epochs_per_s", unit: "1/s", higher: true},
	{name: "trace.overhead_pct", unit: "%"},
}

// Sizes of the layer probes: enough repeats for a stable median, few enough
// that a traced run stays well inside the driver's per-run limit.
const (
	probeReps    = 5  // solver-scale calls (tens of ms each)
	microReps    = 64 // microsecond-scale calls
	lpReps       = 3  // exact-LP calls: past the cliff one takes half a second
	ratioSamples = 8  // matrices behind core.competitive_ratio (0.7 s of certificate each on grid-10x10)
	probeRouter  = "raecke"
	probeR       = 4
	probeSeed    = 7
)

// layerRun carries one traced run's state through the probes.
type layerRun struct {
	rec  *recorder
	g    *graph.Graph
	rng  *rand.Rand
	out  map[string]float64
	dir  string // scratch directory for WAL, snapshot and fleet files
	big  []*demand.Demand
	tiny []*demand.Demand
}

// allocsOf reports the heap allocations and bytes of one call of fn.
func allocsOf(fn func()) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

func must(err error) {
	if err != nil {
		panic(fmt.Errorf("layer probe: %w", err))
	}
}

// runLayers runs every library-layer probe on the workload's topology. big
// are matrices above the exact-LP threshold (MWU solves them), tiny below it.
func runLayers(rec *recorder, w *workload, seed uint64, dir string) (m map[string]float64, err error) {
	defer func() {
		// A probe that cannot run is a harness or API failure, reported as
		// an error of the traced run rather than a crash.
		if p := recover(); p != nil {
			m, err = nil, fmt.Errorf("%v", p)
		}
	}()
	g := w.topo()
	rng := rand.New(rand.NewPCG(seed, 1<<32))
	l := &layerRun{rec: rec, g: g, rng: rng, out: map[string]float64{}, dir: dir}
	bigPairs := densePairs
	if g.NumVertices() < 80 {
		bigPairs = wanBase
	}
	if max := g.NumVertices() * (g.NumVertices() - 1) / 2; bigPairs > max {
		bigPairs = max
	}
	tinyPairs := sparsePairs
	if tinyPairs > bigPairs {
		tinyPairs = bigPairs
	}
	for i := 0; i < ratioSamples; i++ {
		l.big = append(l.big, demand.Gravity(g, 60, bigPairs, rng))
		l.tiny = append(l.tiny, demand.Gravity(g, 20, tinyPairs, rng))
	}

	l.graphFrt()
	ps := l.offline()
	routing := l.solvers(ps)
	l.wire(ps, routing)
	l.logAndPool()
	l.fleet()
	return l.out, nil
}

// graphFrt: the primitives under the router build.
func (l *layerRun) graphFrt() {
	g := l.g
	inv := make([]float64, g.NumEdges())
	for id := range inv {
		inv[id] = 1 / g.Edge(id).Capacity
	}
	n := g.NumVertices()
	l.out["graph.dijkstra_us"] = 1000 * l.rec.medianOf("graph.dijkstra", microReps, func(i int) { g.Dijkstra(i%n, inv) })
	l.out["graph.remove_edges_us"] = 1000 * l.rec.medianOf("graph.remove_edges", microReps, func(i int) {
		graph.RemoveEdges(g, map[int]bool{i % g.NumEdges(): true})
	})
	var tree *frt.Tree
	l.out["frt.build_ms"] = l.rec.medianOf("frt.build", probeReps, func(int) {
		var err error
		tree, err = frt.Build(g, inv, l.rng)
		must(err)
	})
	l.out["frt.route_us"] = 1000 * l.rec.medianOf("frt.route", microReps, func(i int) {
		_, err := tree.Route(i%n, (i*7+1)%n)
		if i%n != (i*7+1)%n {
			must(err)
		}
	})
}

// offline: the once-per-topology phase — router build, R-sample of every
// pair, and the survivor-graph rebuild a link failure triggers.
func (l *layerRun) offline() *core.PathSystem {
	g := l.g
	n := g.NumVertices()
	opt := &oblivious.BuildOptions{Seed: probeSeed}
	var router oblivious.Router
	l.out["oblivious.build_ms"] = l.rec.medianOf("oblivious.build", 3, func(int) {
		var err error
		router, err = oblivious.Build(probeRouter, g, opt)
		must(err)
	})
	l.out["oblivious.sample_us"] = 1000 * l.rec.medianOf("oblivious.sample", microReps, func(i int) {
		u, v := i%n, (i*7+1)%n
		if u != v {
			_, err := router.Sample(u, v, l.rng)
			must(err)
		}
	})
	edge := nonBridgeEdges(g)[0]
	l.out["oblivious.survivors_build_ms"] = l.rec.medianOf("oblivious.survivors_build", 3, func(int) {
		_, err := oblivious.BuildOnSurvivors(probeRouter, g, map[int]bool{edge: true}, opt)
		must(err)
	})
	var ps *core.PathSystem
	l.out["core.rsample_ms"] = l.rec.medianOf("core.rsample", 3, func(int) {
		var err error
		ps, err = core.RSample(router, core.AllPairs(n), probeR, probeSeed)
		must(err)
	})
	l.out["core.paths_total"] = float64(ps.TotalPaths())
	l.out["core.without_edges_ms"] = l.rec.medianOf("core.without_edges", probeReps, func(int) {
		ps.WithoutEdges(map[int]bool{edge: true})
	})
	return ps
}

// pathLP builds the restricted min-congestion LP over the candidates — the
// problem mcf hands the simplex — so lp.SolveCtx can be timed on its own. It
// restates mcf's private builder; TestPathLPMatchesExact fails when the two
// part ways.
func pathLP(g *graph.Graph, cand map[demand.Pair][]graph.Path, d *demand.Demand) *lp.Problem {
	support := d.Support()
	first := make(map[demand.Pair]int, len(support))
	vars := 0
	for _, p := range support {
		first[p] = vars
		vars += len(cand[p])
	}
	n := vars + 1
	prob := &lp.Problem{C: make([]float64, n)}
	prob.C[vars] = 1
	edgeRows := make(map[int][]float64)
	for _, p := range support {
		row := make([]float64, n)
		for j, path := range cand[p] {
			row[first[p]+j] = 1
			for _, id := range path.EdgeIDs {
				er, ok := edgeRows[id]
				if !ok {
					er = make([]float64, n)
					er[vars] = -g.Edge(id).Capacity
					edgeRows[id] = er
				}
				er[first[p]+j]++
			}
		}
		prob.A = append(prob.A, row)
		prob.B = append(prob.B, d.Get(p.U, p.V))
		prob.Rel = append(prob.Rel, lp.EQ)
	}
	for id := 0; id < g.NumEdges(); id++ {
		if er, ok := edgeRows[id]; ok {
			prob.A = append(prob.A, er)
			prob.B = append(prob.B, 0)
			prob.Rel = append(prob.Rel, lp.LE)
		}
	}
	return prob
}

// solvers: rate adaptation and everything under it.
func (l *layerRun) solvers(ps *core.PathSystem) flow.Routing {
	g, ctx := l.g, context.Background()
	big, tiny := l.big, l.tiny

	// core.Adapt on an MWU-sized matrix, with the solver as a child span
	// opened by the OnSolver seam: core.adapt's self time is the candidate
	// collection and dispatch around the solve.
	var routing flow.Routing
	adapt := make([]float64, probeReps)
	for i := range adapt {
		op := l.rec.newOp()
		t0 := time.Now()
		l.rec.call(op, 0, "core.adapt", func(parent int) {
			child := 0
			opts := &core.AdaptOptions{OnSolver: func(s string) {
				l.rec.end(child)
				child = l.rec.begin(op, parent, "mcf."+s)
			}}
			var err error
			routing, err = ps.AdaptCtx(ctx, big[i%len(big)], opts)
			l.rec.end(child)
			must(err)
		})
		adapt[i] = ms(time.Since(t0))
	}
	l.out["core.adapt_ms"] = median(adapt)
	l.out["core.adapt_self_ms"] = median(selfTimes(l.rec.spans)["core.adapt"])
	l.out["core.adapt_allocs"], _ = allocsOf(func() {
		_, err := ps.AdaptCtx(ctx, big[0], nil)
		must(err)
	})

	// The MWU directly, cold then warm-seeded from the previous routing.
	// The whole system's candidates: the solvers look up only the pairs of
	// the demand they are given.
	cand := ps.UniqueAll()
	rounds := 0
	mwuOpts := &mcf.Options{Progress: func(r int, _ float64) { rounds = r }}
	var cold flow.Routing
	l.out["mcf.mwu_ms"] = l.rec.medianOf("mcf.mwu", probeReps, func(int) {
		var err error
		cold, err = mcf.MinCongestionOnPathsCtx(ctx, g, cand, big[0], mwuOpts)
		must(err)
	})
	l.out["mcf.mwu_rounds"] = float64(rounds)
	l.out["mcf.mwu_us_per_round"] = 1000 * l.out["mcf.mwu_ms"] / float64(rounds)
	l.out["mcf.mwu_allocs"], l.out["mcf.mwu_bytes"] = allocsOf(func() {
		_, err := mcf.MinCongestionOnPathsCtx(ctx, g, cand, big[0], nil)
		must(err)
	})
	var weights map[demand.Pair]map[string]float64
	l.out["core.candidate_weights_ms"] = l.rec.medianOf("core.candidate_weights", probeReps, func(int) {
		weights = core.CandidateWeights(cold)
	})
	l.out["mcf.warm_ms"] = l.rec.medianOf("mcf.warm", probeReps, func(int) {
		_, err := mcf.MinCongestionOnPathsCtx(ctx, g, cand, big[0],
			&mcf.Options{Iterations: 64, Warm: &mcf.WarmStart{Weights: weights}})
		must(err)
	})

	// The delta step: nudge patchWidth pairs of the matrix the cold routing
	// serves and re-solve only those.
	loads := cold.EdgeLoads(g)
	pairs := big[0].Support()
	l.out["core.adapt_delta_ms"] = l.rec.medianOf("core.adapt_delta", 4*probeReps, func(i int) {
		d := big[0].Clone()
		touched := make([]demand.Pair, 0, patchWidth)
		for k := 0; k < patchWidth && k < len(pairs); k++ {
			p := pairs[(i*patchWidth+k)%len(pairs)]
			d.Set(p.U, p.V, d.Get(p.U, p.V)*(1+patchNudge))
			touched = append(touched, p)
		}
		_, err := ps.AdaptDeltaCtx(ctx, cold, loads, d, touched, &core.AdaptOptions{MWU: mcf.Options{Iterations: 64}})
		must(err)
	})

	// The exact path on LP-sized matrices, and the simplex alone on the
	// same problems, built before the clock starts.
	l.out["mcf.exact_ms"] = l.rec.medianOf("mcf.exact", lpReps, func(i int) {
		// A numerical failure here is the fall-through core.Adapt takes to
		// MWU; the time it burnt is still the exact path's cost.
		mcf.MinCongestionOnPathsExactCtx(ctx, g, cand, tiny[i])
	})
	probs := make([]*lp.Problem, lpReps)
	for i := range probs {
		probs[i] = pathLP(g, cand, tiny[i])
	}
	l.out["lp.solve_ms"] = l.rec.medianOf("lp.solve", lpReps, func(i int) { probs[i].SolveCtx(ctx) })
	l.out["lp.rows"] = float64(len(probs[0].A))
	l.out["lp.cols"] = float64(len(probs[0].C))

	// Off-path today: the dual lower bound, and with it the paper's own
	// metric — served congestion over a certified bound on the optimum.
	unit := make([]float64, g.NumEdges())
	for id := range unit {
		unit[id] = 1 / g.Edge(id).Capacity
	}
	l.out["mcf.dual_lb_ms"] = l.rec.medianOf("mcf.dual_lb", probeReps, func(i int) {
		_, err := mcf.DualLowerBound(g, big[i%len(big)], unit)
		must(err)
	})
	var ratios []float64
	for _, d := range big {
		op := l.rec.newOp()
		var served float64
		l.rec.call(op, 0, "core.adapt", func(int) {
			var err error
			served, err = ps.AdaptCongestionCtx(ctx, d, nil)
			must(err)
		})
		l.rec.call(op, 0, "mcf.certificate", func(int) {
			cert, err := mcf.ApproxOptWithCertificate(g, d, &mcf.Options{Iterations: 64})
			must(err)
			if cert.Lower > 0 {
				ratios = append(ratios, served/cert.Lower)
			}
		})
	}
	l.out["core.competitive_ratio"] = mean(ratios)
	return routing
}

// countWriter counts the bytes written through it.
type countWriter struct{ n int }

func (c *countWriter) Write(p []byte) (int, error) { c.n += len(p); return len(p), nil }

// wire: the serial formats on the request, read and recovery paths.
func (l *layerRun) wire(ps *core.PathSystem, routing flow.Routing) {
	g := l.g
	body := demandBody(l.big[0])
	l.out["serial.demand_bytes"] = float64(len(body))
	l.out["serial.decode_demand_us"] = 1000 * l.rec.medianOf("serial.decode_demand", 4*probeReps, func(int) {
		_, err := serial.DecodeDemand(bytes.NewReader(body))
		must(err)
	})
	var cw countWriter
	l.out["serial.encode_routing_ms"] = l.rec.medianOf("serial.encode_routing", 4*probeReps, func(int) {
		cw.n = 0
		must(serial.EncodeRouting(&cw, g, routing))
	})
	l.out["serial.routing_bytes"] = float64(cw.n)
	snap := &serial.Snapshot{Router: probeRouter, R: probeR, Seed: probeSeed, Graph: g, System: ps}
	var buf bytes.Buffer
	l.out["serial.encode_snapshot_ms"] = l.rec.medianOf("serial.encode_snapshot", probeReps, func(int) {
		buf.Reset()
		must(serial.EncodeSnapshot(&buf, snap))
	})
	l.out["serial.snapshot_bytes"] = float64(buf.Len())
	l.out["serial.decode_snapshot_ms"] = l.rec.medianOf("serial.decode_snapshot", probeReps, func(int) {
		_, err := serial.DecodeSnapshot(bytes.NewReader(buf.Bytes()))
		must(err)
	})
	l.out["serial.hash_ms"] = l.rec.medianOf("serial.hash", probeReps, func(int) { serial.PathSystemHash(ps) })
}

// logAndPool: the write-ahead log at the workload's record size (fsync
// numbers are this disk's), the pool hand-off, and the exposition writer.
func (l *layerRun) logAndPool() {
	record := demandBody(l.big[0])
	l.out["wal.record_bytes"] = float64(len(record))
	path := filepath.Join(l.dir, "probe.wal")
	log, _, err := wal.Open(path, nil)
	must(err)
	l.out["wal.append_us"] = 1000 * l.rec.medianOf("wal.append", microReps, func(int) { must(log.Append(record)) })
	l.out["wal.commit_us"] = 1000 * l.rec.medianOf("wal.commit", microReps, func(int) { must(log.Commit(record)) })
	must(log.Close())
	raw, err := os.ReadFile(path)
	must(err)
	l.out["wal.scan_ms"] = l.rec.medianOf("wal.scan", probeReps, func(int) { wal.Scan(raw) })

	pool := par.NewPool(1, 16)
	waits := make([]float64, microReps)
	for i := range waits {
		done := make(chan time.Duration)
		op := l.rec.newOp()
		l.rec.call(op, 0, "par.submit", func(int) {
			if !pool.TrySubmit(par.Timed(func(w time.Duration) { done <- w })) {
				panic("par: idle pool refused a task")
			}
			waits[i] = float64(<-done) / float64(time.Microsecond)
		})
	}
	pool.Close()
	l.out["par.submit_us"] = median(waits)
}

// fleet: two shards of the workload's topology, one resident at a time, so
// touching them alternately evicts and reloads. No end-to-end workload runs
// the fleet yet; these are the baseline for fleet work.
func (l *layerRun) fleet() {
	dir := filepath.Join(l.dir, "fleet")
	must(os.MkdirAll(dir, 0o755))
	var topo bytes.Buffer
	must(serial.EncodeGraph(&topo, l.g))
	for _, id := range []string{"a", "b"} {
		must(os.WriteFile(filepath.Join(dir, id+fleet.TopoSuffix), topo.Bytes(), 0o644))
	}
	cfg := fleet.Config{
		Dir: dir, MaxResident: 1, Workers: 1, DefaultShard: "a",
		Engine: service.Config{R: probeR, Seed: probeSeed, RouterName: probeRouter},
		Build:  oblivious.BuildOptions{Seed: probeSeed},
	}
	var f *fleet.Fleet
	l.out["fleet.open_ms"] = l.rec.timed("fleet.open", func() {
		var err error
		f, err = fleet.Open(cfg)
		must(err)
		_, err = f.Engine("a")
		must(err)
	})
	defer f.Close()
	_, err := f.Engine("b") // cold start of b, evicting a: leaves a.snap behind
	must(err)
	// Each further touch evicts the resident shard (snapshot + close) and
	// reloads the other warm. The journal's reload event carries the build
	// part; the rest of the touch is the eviction.
	var evict, reload []float64
	for i := 0; i < 4; i++ {
		id := []string{"a", "b"}[i%2]
		touch := l.rec.timed("fleet.touch", func() {
			_, err := f.Engine(id)
			must(err)
		})
		build := 0.0
		for _, ev := range f.Events() {
			if ev.Type == obs.EventReload && ev.Shard == id {
				if b, ok := ev.Detail["build_ms"].(float64); ok {
					build = b
				}
			}
		}
		reload = append(reload, build)
		evict = append(evict, touch-build)
	}
	l.out["fleet.reload_ms"] = median(reload)
	l.out["fleet.evict_ms"] = median(evict)
}

// engineRun drives an in-process engine (no HTTP) through the plan's ops and
// a short probe of every op kind the plan lacks, under spans whose children
// are the stages the engine's own epoch trace reports.
type engineRun struct {
	rec    *recorder
	e      *service.Engine
	submit []float64
	patch  []float64
	fail   []float64
	rest   []float64
	gated  []float64 // the plan's own gated ops, for http.overhead_us
	m      map[string]float64
}

// newEngine builds an engine over g with a WAL in dir.
func newEngine(g *graph.Graph, dir string) (*service.Engine, *wal.Log, error) {
	router, err := oblivious.Build(probeRouter, g, &oblivious.BuildOptions{Seed: probeSeed})
	if err != nil {
		return nil, nil, err
	}
	log, _, err := wal.Open(filepath.Join(dir, "sys.wal"), nil)
	if err != nil {
		return nil, nil, err
	}
	e, err := service.New(engineConfig(g, router, log))
	if err != nil {
		log.Close()
		return nil, nil, err
	}
	return e, log, nil
}

func engineConfig(g *graph.Graph, router oblivious.Router, log *wal.Log) service.Config {
	return service.Config{Graph: g, Router: router, RouterName: probeRouter, R: probeR, Seed: probeSeed,
		Workers: 1, TraceDepth: 1024, WAL: log}
}

// traceOf finds the engine's trace of one epoch.
func traceOf(e *service.Engine, epoch uint64) *obs.EpochTrace {
	for _, t := range e.Tracer().Traces(0) {
		if t.Epoch == epoch {
			return t
		}
	}
	return nil
}

// hangStages hangs the epoch's queue-wait, solve and publish stages, as the
// engine's own trace timed them, under the harness's span of the op.
func (r *engineRun) hangStages(op, parent int, epoch uint64) {
	if !r.rec.enabled {
		return
	}
	t := traceOf(r.e, epoch)
	if t == nil {
		return
	}
	dur := func(msv float64) time.Duration { return time.Duration(msv * float64(time.Millisecond)) }
	r.rec.add(op, parent, "service.queue_wait", t.Start.Add(-dur(t.QueueWaitMs)), t.Start)
	solved := t.Start.Add(dur(t.SolveMs))
	r.rec.add(op, parent, "service.solve", t.Start, solved)
	r.rec.add(op, parent, "service.publish", solved, solved.Add(dur(t.PublishMs)))
}

// do runs one op against the engine and returns its latency in ms.
func (r *engineRun) do(o op) (float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	opID := r.rec.newOp()
	t0 := time.Now()
	var err error
	switch o.kind {
	case opSubmit, opPatch:
		name := "service.submit_wait"
		if o.kind == opPatch {
			name = "service.patch_wait"
		}
		r.rec.call(opID, 0, name, func(parent int) {
			var epoch uint64
			if o.kind == opSubmit {
				epoch, err = r.e.SubmitDemandCtx(ctx, o.demand)
			} else {
				set := make([]service.PairAmount, len(o.set))
				for i, s := range o.set {
					set[i] = service.PairAmount{U: s.U, V: s.V, Amount: s.Amount}
				}
				epoch, err = r.e.PatchDemandCtx(ctx, set, nil)
			}
			if err != nil {
				return
			}
			var out *service.Outcome
			if out, err = r.e.Wait(ctx, epoch); err == nil && !out.OK {
				err = fmt.Errorf("epoch %d not solved: %s", epoch, out.Err)
			}
			r.hangStages(opID, parent, epoch)
		})
	case opFail, opRestore:
		name := "service.fail_edges"
		if o.kind == opRestore {
			name = "service.restore_edges"
		}
		r.rec.call(opID, 0, name, func(parent int) {
			before := r.e.Active().Epoch
			if o.kind == opFail {
				_, err = r.e.FailEdges(o.edge)
			} else {
				_, err = r.e.RestoreEdges(o.edge)
			}
			if err != nil {
				return
			}
			// The event publishes an interim epoch and enqueues the re-adapt.
			var out *service.Outcome
			if out, err = r.e.Wait(ctx, before+2); err == nil && !out.OK {
				err = fmt.Errorf("re-adapt epoch %d not solved: %s", before+2, out.Err)
			}
			r.hangStages(opID, parent, before+2)
		})
	}
	return ms(time.Since(t0)), err
}

// run executes ops against the engine, sorting latencies by op kind.
func (r *engineRun) run(ops []op, plan bool) error {
	for i, o := range ops {
		lat, err := r.do(o)
		if err != nil {
			return fmt.Errorf("engine op %d: %w", i, err)
		}
		if plan && o.gated {
			r.gated = append(r.gated, lat)
		}
		switch o.kind {
		case opSubmit:
			r.submit = append(r.submit, lat)
		case opPatch:
			r.patch = append(r.patch, lat)
		case opFail:
			r.fail = append(r.fail, lat)
		case opRestore:
			r.rest = append(r.rest, lat)
		}
	}
	return nil
}

// probeOps is a short sequence of every op kind on g over the standing
// matrix base: the kinds a workload's own plan lacks still get a number.
func probeOps(g *graph.Graph, base *demand.Demand, seed uint64) []op {
	rng := rand.New(rand.NewPCG(seed, 2<<32))
	var ops []op
	for _, d := range gravities(g, 3, volume, base.SupportSize(), rng) {
		ops = append(ops, submitOp(d))
	}
	// Back on the standing matrix, then two full delta streaks.
	ops = append(ops, submitOp(base))
	pairs := base.Support()
	for i := 0; i < 18; i++ {
		p := pairs[rng.IntN(len(pairs))]
		ops = append(ops, patchOp([]patchEntry{{U: p.U, V: p.V, Amount: base.Get(p.U, p.V) * (1 + patchNudge)}}))
	}
	for _, e := range nonBridgeEdges(g)[:2] {
		ops = append(ops, flapOps(e)...)
	}
	return ops
}

// runEngine is the service-layer part of the traced run: the plan's own ops
// (timed as a whole for the traced op rate), the probe of the remaining op
// kinds, the read side, and the recovery path.
func runEngine(rec *recorder, pl *plan, seed uint64, dir string) (*engineRun, error) {
	// The spans-off and spans-on runs share this process: start each from a
	// collected heap so the second does not pay for the first's garbage.
	runtime.GC()
	e, log, err := newEngine(pl.g, dir)
	if err != nil {
		return nil, err
	}
	r := &engineRun{rec: rec, e: e, m: map[string]float64{}}
	snapPath := filepath.Join(dir, "sys.snap")
	err = r.writes(pl, seed, snapPath)
	if err == nil {
		r.stages()
		err = r.reads(pl, snapPath)
	}
	// Drop the engine without a final snapshot, as a crash would.
	e.Close()
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = r.recovery(dir, snapPath)
	}
	return r, err
}

// writes sends the standing matrix, checkpoints as a timed round does, then
// runs the plan's own ops (timed as a whole for the traced op rate) and the
// probe of the remaining op kinds.
func (r *engineRun) writes(pl *plan, seed uint64, snapPath string) error {
	if _, err := r.do(submitOp(pl.base)); err != nil {
		return err
	}
	var err error
	r.m["service.snapshot_ms"] = r.rec.timed("service.snapshot", func() { _, err = r.e.SnapshotToFile(snapPath) })
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := r.run(pl.ops, true); err != nil {
		return err
	}
	r.m["trace.epochs_per_s"] = float64(len(pl.ops)) / time.Since(t0).Seconds()
	if err := r.run(probeOps(pl.g, pl.base, seed), false); err != nil {
		return err
	}
	r.m["service.submit_wait_ms"] = median(r.submit)
	r.m["service.patch_wait_ms"] = median(r.patch)
	r.m["service.fail_edges_ms"] = median(r.fail)
	r.m["service.restore_edges_ms"] = median(r.rest)
	return nil
}

// stages reports the stage breakdown from the engine's own traces and
// counters; the self time of the op spans is what the stages do not cover
// (validation, WAL commit, wake-up).
func (r *engineRun) stages() {
	var queue, solve, publish []float64
	var retries float64
	for _, t := range r.e.Tracer().Traces(0) {
		if t.Outcome == obs.OutcomeRenormalized {
			continue
		}
		queue = append(queue, 1000*t.QueueWaitMs)
		solve = append(solve, t.SolveMs)
		publish = append(publish, 1000*t.PublishMs)
		retries += float64(t.Retries)
	}
	r.m["service.queue_wait_us"] = median(queue)
	r.m["service.solve_ms"] = median(solve)
	r.m["service.publish_us"] = median(publish)
	r.m["service.retries"] = retries
	self := selfTimes(r.rec.spans)
	var opSelf []float64
	for _, name := range []string{"service.submit_wait", "service.patch_wait", "service.fail_edges", "service.restore_edges"} {
		opSelf = append(opSelf, self[name]...)
	}
	r.m["service.op_self_ms"] = median(opSelf)
	vars := r.e.Metrics().Vars()
	r.m["service.fallbacks"] = expInt(vars, "fallbacks")
	if patches := expInt(vars, "demand_patches"); patches > 0 {
		r.m["service.delta_share"] = expInt(vars, "delta_epochs") / patches
	}
}

// reads times the read side through the real handler stack, without a
// socket, and the exposition writer under /metrics on its own.
func (r *engineRun) reads(pl *plan, snapPath string) error {
	srv := service.NewServer(r.e, snapPath)
	var err error
	get := func(name, target string, reps int) float64 {
		return r.rec.medianOf(name, reps, func(int) {
			rr := httptest.NewRecorder()
			srv.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, target, nil))
			if rr.Code != http.StatusOK {
				err = fmt.Errorf("GET %s: status %d", target, rr.Code)
			}
		})
	}
	pr := pl.final.Support()[0]
	r.m["service.read_routing_ms"] = get("service.read_routing", "/v1/routing", 4*probeReps)
	r.m["service.read_paths_us"] = 1000 * get("service.read_paths", fmt.Sprintf("/v1/paths?src=%d&dst=%d", pr.U, pr.V), microReps)
	r.m["service.scrape_ms"] = get("service.scrape", "/metrics", probeReps)
	vars := r.e.Metrics().Vars()
	r.m["obs.prom_write_ms"] = r.rec.medianOf("obs.prom_write", probeReps, func(int) {
		p := obs.NewProm()
		p.FromVars("sparseroute_engine", nil, vars)
		p.WriteTo(io.Discard)
	})
	return err
}

// recovery restores a second engine from the checkpoint and replays the log
// of everything sent since, as a restart after a crash does.
func (r *engineRun) recovery(dir, snapPath string) error {
	log, recov, err := wal.Open(filepath.Join(dir, "sys.wal"), nil)
	if err != nil {
		return err
	}
	defer log.Close()
	f, err := os.Open(snapPath)
	if err != nil {
		return err
	}
	defer f.Close()
	var e2 *service.Engine
	r.m["service.restore_ms"] = r.rec.timed("service.restore", func() {
		e2, err = service.Restore(f, service.Config{Workers: 1, WAL: log})
	})
	if err != nil {
		return err
	}
	defer e2.Close()
	r.m["service.replay_ms"] = r.rec.timed("service.replay", func() { _, err = e2.ReplayWAL(recov) })
	if err != nil {
		return err
	}
	if e2.Hash() != r.e.Hash() {
		return fmt.Errorf("replayed engine hash %016x, want %016x", e2.Hash(), r.e.Hash())
	}
	return nil
}
