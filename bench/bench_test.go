package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"sparseroute/internal/core"
	"sparseroute/internal/mcf"
	"sparseroute/internal/oblivious"

	"sparseroute/internal/demand"
	"sparseroute/internal/graph"
	"sparseroute/internal/graph/gen"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // sorted: 10 20 30 40
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {0.25, 17.5}, {1.0 / 3, 20}, {-1, 10}, {2, 40},
	} {
		if got := percentile(xs, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Error("percentile sorted its argument in place")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of empty sample = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

func TestMedianOfRounds(t *testing.T) {
	// One slow round out of five must not move the reported value.
	s := spreadOf([]float64{100, 101, 99, 180, 100})
	if s.Median != 100 || s.Min != 99 || s.Max != 180 {
		t.Errorf("spreadOf = %+v, want median 100 min 99 max 180", s)
	}
	// An even count reports the mean of the middle two.
	if got := spreadOf([]float64{1, 2, 4, 100}).Median; got != 3 {
		t.Errorf("median of four rounds = %v, want 3", got)
	}
}

func TestBoundComparison(t *testing.T) {
	// The self-check compares two runs symmetrically against half the bound;
	// congestion, a pure function of the inputs, against rounding only.
	for _, c := range []struct {
		a, b, want float64
	}{
		{100, 109, 0.09}, {100, 91, 0.09}, {10, 8.9, 0.11}, {0, 0.5, 0.5}, {3.8, 3.8, 0},
	} {
		if got := relDiff(c.a, c.b); !near(got, c.want) {
			t.Errorf("relDiff(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	for _, m := range endToEnd {
		want := m.bound / 2
		if m.name == "congestion_mean" {
			want = 1e-6
		}
		if got := selfcheckLimit(m); got != want {
			t.Errorf("selfcheckLimit(%s) = %v, want %v", m.name, got, want)
		}
	}
}

func TestModeGap(t *testing.T) {
	// Half the ops take 10, half take 20: the median sits between two modes.
	var bimodal, tight []float64
	for i := 0; i < 50; i++ {
		bimodal = append(bimodal, 10, 20)
		tight = append(tight, 10+float64(i%5)*0.01, 10)
	}
	if g := modeGap(bimodal); g <= modeGapLimit {
		t.Errorf("bimodal sample has mode gap %v, want above %v", g, modeGapLimit)
	}
	if g := modeGap(tight); g > modeGapLimit {
		t.Errorf("tight sample has mode gap %v, want at most %v", g, modeGapLimit)
	}
}

func TestPacerDueTimeAccounting(t *testing.T) {
	start := time.Unix(1000, 0)
	p := pacer{start: start, interval: 50 * time.Millisecond}
	if got := p.due(3); !got.Equal(start.Add(150 * time.Millisecond)) {
		t.Errorf("due(3) = %v", got)
	}
	// Tick 2 is due at +100ms. A stall delays its send to +130ms and it
	// completes at +134ms: the latency charged is 34ms, not the 4ms the
	// request itself took, and the generator ran 30ms late.
	sent, done := start.Add(130*time.Millisecond), start.Add(134*time.Millisecond)
	if got := p.latency(2, done); got != 34*time.Millisecond {
		t.Errorf("latency from due time = %v, want 34ms", got)
	}
	if got := p.lateness(2, sent); got != 30*time.Millisecond {
		t.Errorf("lateness = %v, want 30ms", got)
	}
	// An early send shows as negative lateness, so a generator that jumps its
	// schedule cannot hide.
	if got := p.lateness(2, start.Add(99*time.Millisecond)); got != -time.Millisecond {
		t.Errorf("lateness of an early send = %v, want -1ms", got)
	}
}

// TestReaderNeverSendsEarly runs the paced reader against a stub and checks
// that no tick, the first two included, goes out before its due time or
// reports a latency shorter than the request took.
func TestReaderNeverSendsEarly(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("{}")) }))
	defer srv.Close()
	c := newConn(srv.URL)
	defer c.close()
	res := &roundResult{}
	var mu sync.Mutex
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		readLoop(c, 1, stop, res, &mu)
	}()
	time.Sleep(4*readInterval + readInterval/2)
	close(stop)
	<-done
	if res.failed != 0 || len(res.readMs) < 4 {
		t.Fatalf("%d ticks, %d failed: %v", len(res.readMs), res.failed, res.errs)
	}
	for i := range res.readMs {
		if res.readLate[i] < 0 || res.readMs[i] <= 0 {
			t.Errorf("tick %d: sent %.3f ms after its due time, latency %.3f ms", i, res.readLate[i], res.readMs[i])
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},    // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 130},   // outlives op: clipped at 100
		{ID: 5, Parent: 2, Name: "leaf", Start: 15, End: 20}, // grandchild: only a's self time
		{ID: 6, Name: "solo", Start: 200, End: 260},
	}
	self := selfTimes(spans)
	want := map[string]float64{
		"op":   (100 - (50 + 10)) / 1e6, // covered: [10,60] and [90,100]
		"a":    (30 - 5) / 1e6,
		"b":    30 / 1e6,
		"c":    40 / 1e6,
		"leaf": 5 / 1e6,
		"solo": 60 / 1e6,
	}
	for name, w := range want {
		if got := self[name]; len(got) != 1 || !near(got[0], w) {
			t.Errorf("self time of %s = %v, want [%v]", name, got, w)
		}
	}
}

func TestRecorderDisabledStillRuns(t *testing.T) {
	r := newRecorder(false)
	ran := false
	r.call(r.newOp(), 0, "x", func(int) { ran = true })
	if !ran || len(r.spans) != 0 {
		t.Errorf("disabled recorder: ran=%v spans=%d, want true and 0", ran, len(r.spans))
	}
}

// benchmarkFile is the part of BENCHMARK.json the harness must agree with.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Seconds   int      `json:"run_seconds"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func better(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and the tables the
// harness prints from in step: the driver refuses a run whose metrics differ
// from the file's.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if f.Seconds != refSeconds {
		t.Errorf("run_seconds %d, harness reference %d", f.Seconds, refSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in file, %d in harness", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name {
			t.Errorf("workload %d: file %q, harness %q", i, f.Workloads[i].Name, w.name)
		}
		if len(f.Workloads[i].Why) == 0 || len(f.Workloads[i].Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.name, len(f.Workloads[i].Why))
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in file, %d in harness", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := f.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != better(m.higher) || got.Bound != m.bound {
			t.Errorf("end-to-end %d: file %+v, harness %+v", i, got, m)
		}
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in file, %d in harness", len(f.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := f.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != better(m.higher) {
			t.Errorf("per-layer %d: file %+v, harness %+v", i, got, m)
		}
	}
}

func TestPlansAreSeeded(t *testing.T) {
	for _, w := range workloads {
		g := w.topo()
		a, b := w.planFor(g, 5, 1, 0.1), w.planFor(g, 5, 1, 0.1)
		c := w.planFor(g, 6, 1, 0.1)
		if len(a.ops) != len(b.ops) || len(a.ops) < 2 {
			t.Fatalf("%s: plans of %d and %d ops", w.name, len(a.ops), len(b.ops))
		}
		same, differs := true, false
		for i := range a.ops {
			same = same && string(a.ops[i].body) == string(b.ops[i].body)
			differs = differs || string(a.ops[i].body) != string(c.ops[i].body)
		}
		if !same {
			t.Errorf("%s: the same seed gave different op lists", w.name)
		}
		if !differs {
			t.Errorf("%s: seeds 5 and 6 gave the same op list", w.name)
		}
		if !demand.Equal(a.final, b.final, 0) {
			t.Errorf("%s: the same seed gave different final matrices", w.name)
		}
	}
}

func TestFlapPlanStaysOffBridges(t *testing.T) {
	w := findWorkload("wan64-flap")
	g := w.topo()
	safe := map[int]bool{}
	for _, e := range nonBridgeEdges(g) {
		safe[e] = true
	}
	if len(safe) < 24 {
		t.Fatalf("only %d non-bridge edges", len(safe))
	}
	// Consecutive rounds walk consecutive slices of one shuffle: no edge
	// repeats before the list wraps.
	seen := map[int]bool{}
	for round := 0; round < 2; round++ {
		pl := w.planFor(g, 9, round, 1)
		for i, o := range pl.ops {
			if !safe[o.edge] {
				t.Fatalf("round %d op %d fails bridge edge %d", round, i, o.edge)
			}
			if want := []opKind{opFail, opRestore}[i%2]; o.kind != want {
				t.Fatalf("round %d op %d has kind %v, want %v", round, i, o.kind, want)
			}
			if o.kind == opFail {
				if seen[o.edge] && len(seen) < len(safe) {
					t.Errorf("edge %d repeats before the shuffle wrapped", o.edge)
				}
				seen[o.edge] = true
			}
		}
	}
}

// smokeWorkload is a seconds-scale stand-in for the real workloads: a
// hypercube small enough that router build, sampling and every solve are
// sub-millisecond.
func smokeWorkload() *workload {
	return &workload{
		name:   "smoke",
		solver: "exact",
		ops:    6,
		topo:   func() *graph.Graph { return gen.Hypercube(3) },
		build: func(g *graph.Graph, seed uint64, round, ops int) *plan {
			seq := gravities(g, ops+1, 8, 6, roundRNG(seed, round))
			return submitPlan(g, seq[0], seq[1:], 1)
		},
	}
}

// TestSmokeRound runs one whole round — real daemon over loopback, reader,
// validation, SIGKILL recovery — on hypercube-3. The long runs live behind
// `go run ./bench`; this keeps the harness itself under tier-1.
func TestSmokeRound(t *testing.T) {
	begin := time.Now()
	bin, err := buildRouted(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	built := time.Since(begin)
	w := smokeWorkload()
	res, err := runRound(bin, t.TempDir(), w, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkSolvers(w, res)
	if res.failed != 0 {
		t.Fatalf("%d of %d ops failed: %v", res.failed, res.attempted, res.errs)
	}
	if len(res.epochMs) != w.ops || res.ops != w.ops {
		t.Errorf("%d gated latencies for %d ops", len(res.epochMs), w.ops)
	}
	if res.setupS <= 0 || res.recoverS <= 0 || res.rssPeakMB <= 0 || res.wallS <= 0 {
		t.Errorf("unmeasured metric in %+v", res)
	}
	r := &runResult{w: w, rounds: []*roundResult{res}}
	for _, m := range endToEnd {
		if m.name == "read_p50_ms" {
			continue // the timed phase is shorter than one reader interval
		}
		if v := r.value(m).Median; !(v > 0) {
			t.Errorf("%s = %v, want > 0", m.name, v)
		}
	}
	if took := time.Since(begin) - built; took > 5*time.Second {
		t.Errorf("smoke round took %v, want under 5s", took)
	}
}

// TestPathLPMatchesExact pins the harness's copy of the restricted LP to the
// program's: the optimum of pathLP must be the congestion of the routing
// mcf's exact solver returns on the same input, or lp.rows, lp.cols and
// lp.solve_ms no longer describe the program's LP.
func TestPathLPMatchesExact(t *testing.T) {
	g := gen.Hypercube(3)
	router, err := oblivious.Build(probeRouter, g, &oblivious.BuildOptions{Seed: probeSeed})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := core.RSample(router, core.AllPairs(g.NumVertices()), probeR, probeSeed)
	if err != nil {
		t.Fatal(err)
	}
	cand := ps.UniqueAll()
	for i, d := range gravities(g, 4, 8, 10, rand.New(rand.NewPCG(3, 3))) {
		r, err := mcf.MinCongestionOnPathsExactCtx(context.Background(), g, cand, d)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := pathLP(g, cand, d).Solve()
		if err != nil {
			t.Fatal(err)
		}
		if want := r.MaxCongestion(g); math.Abs(sol.Value-want) > 1e-6*(1+want) {
			t.Errorf("matrix %d: pathLP optimum %v, mcf exact congestion %v", i, sol.Value, want)
		}
	}
}

// TestSmokeTraced runs the per-layer battery on hypercube-3 and checks that
// it yields every metric BENCHMARK.json lists, so a traced run can never
// print a partial set.
func TestSmokeTraced(t *testing.T) {
	w := smokeWorkload()
	rec := newRecorder(true)
	m, err := runLayers(rec, w, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	er, err := runEngine(rec, w.planFor(w.topo(), 1, 0, 1), 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range er.m {
		m[k] = v
	}
	// Filled in by traceOne from the daemon round and the spans-off run.
	fromRound := map[string]bool{"service.read_p99_ms": true, "service.epoch_p95_ms": true,
		"http.overhead_us": true, "machine.spin_ms": true, "trace.overhead_pct": true}
	for _, d := range perLayer {
		v, ok := m[d.name]
		if fromRound[d.name] {
			continue
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("per-layer metric %s missing or not finite: %v", d.name, v)
		}
	}
	if m["service.delta_share"] < 0.8 {
		t.Errorf("service.delta_share = %v, want at least 0.8", m["service.delta_share"])
	}
	if len(rec.spans) == 0 {
		t.Fatal("no spans recorded")
	}
	for _, s := range rec.spans {
		if s.End < s.Start || s.Name == "" || s.Op == 0 {
			t.Fatalf("malformed span %+v", s)
		}
	}
	path, err := rec.write(t.TempDir(), "smoke")
	if err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() == 0 {
		t.Errorf("trace file %s: %v", path, err)
	}
}
