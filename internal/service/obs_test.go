package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sparseroute/internal/core"
	"sparseroute/internal/demand"
	"sparseroute/internal/flow"
	"sparseroute/internal/graph"
	"sparseroute/internal/obs"
	"sparseroute/internal/stats"

	"context"
)

func solveOne(t *testing.T, e *Engine, u, v int, amount float64) *Outcome {
	t.Helper()
	d := demand.New()
	d.Set(u, v, amount)
	epoch, err := e.submit(d)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Wait(waitCtx(t), epoch)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func lastTrace(t *testing.T, e *Engine) *obs.EpochTrace {
	t.Helper()
	trs := e.Tracer().Traces(1)
	if len(trs) != 1 {
		t.Fatalf("traces: %d, want 1", len(trs))
	}
	return trs[0]
}

func TestEpochTraceRecorded(t *testing.T) {
	e := testEngine(t, Config{Seed: 1})
	out := solveOne(t, e, 0, 7, 2)
	if !out.OK {
		t.Fatalf("outcome %+v", out)
	}
	tr := lastTrace(t, e)
	if tr.Epoch != 1 {
		t.Fatalf("trace epoch %d, want 1", tr.Epoch)
	}
	if tr.Outcome != obs.OutcomeSolved {
		t.Fatalf("trace outcome %q, want solved", tr.Outcome)
	}
	if tr.Solver != "exact" && tr.Solver != "mwu" {
		t.Fatalf("trace solver %q, want exact or mwu", tr.Solver)
	}
	if len(tr.Attempts) != 1 || tr.Attempts[0].Stage != "adapt" || !tr.Attempts[0].OK {
		t.Fatalf("trace attempts %+v, want one successful adapt", tr.Attempts)
	}
	if tr.QueueWaitMs < 0 || tr.SolveMs < 0 || tr.PublishMs < 0 {
		t.Fatalf("negative timings in trace %+v", tr)
	}
	if tr.TotalMs < tr.SolveMs {
		t.Fatalf("total %vms < solve %vms", tr.TotalMs, tr.SolveMs)
	}
	if tr.Congestion != out.Congestion {
		t.Fatalf("trace congestion %v, want %v", tr.Congestion, out.Congestion)
	}
	if tr.Retries != 0 || tr.DroppedPairs != 0 {
		t.Fatalf("trace %+v, want no retries/drops", tr)
	}
}

func TestEpochTraceMWUProgress(t *testing.T) {
	e := testEngine(t, Config{Seed: 2})
	tuneAdapt(e, func(o *core.AdaptOptions) {
		o.ExactThreshold = -1
		o.MWU.Iterations, o.MWU.ProgressEvery = 40, 8
	})
	if out := solveOne(t, e, 0, 7, 1); !out.OK {
		t.Fatalf("outcome %+v", out)
	}
	tr := lastTrace(t, e)
	if tr.Solver != "mwu" {
		t.Fatalf("solver %q, want mwu (exact disabled)", tr.Solver)
	}
	if tr.MWURounds != 40 {
		t.Fatalf("mwu rounds %d, want 40", tr.MWURounds)
	}
	if tr.ConvergenceGap < 0 {
		t.Fatalf("convergence gap %v, want >= 0", tr.ConvergenceGap)
	}
}

// TestEpochTraceRetryChain: the trace of an epoch whose delta solve is
// refused records both attempts, the refused delta with its error and the
// cold solve that served, one retry and the cold tag; the trace of a failed
// cold solve records one failed attempt, no retry and the fallback.
func TestEpochTraceRetryChain(t *testing.T) {
	e := testEngine(t, Config{Seed: 7})
	d := primeRetryChain(t, e)
	if out := mustPatch(t, e, []PairAmount{{U: 0, V: 7, Amount: 2.02}}, nil); !out.OK {
		t.Fatalf("outcome %+v", out)
	}
	tr := lastTrace(t, e)
	if stages := attemptStages(tr); !slices.Equal(stages, []string{"delta", "adapt"}) {
		t.Fatalf("attempt stages %v, want [delta adapt]", stages)
	}
	if tr.Attempts[0].OK || !strings.Contains(tr.Attempts[0].Err, "prev loads") {
		t.Fatalf("delta attempt %+v, want refused with its error", tr.Attempts[0])
	}
	if !tr.Attempts[1].OK || tr.Attempts[1].Err != "" {
		t.Fatalf("adapt attempt %+v, want OK", tr.Attempts[1])
	}
	if tr.Retries != 1 || tr.WarmStart != obs.WarmCold || tr.Outcome != obs.OutcomeSolved {
		t.Fatalf("trace %+v, want solved cold after one retry", tr)
	}

	e.adapt = func(ctx context.Context, ps *core.PathSystem, d *demand.Demand, opt *core.AdaptOptions) (flow.Routing, error) {
		return nil, fmt.Errorf("injected solver failure")
	}
	epoch, err := e.submit(d)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := e.Wait(waitCtx(t), epoch); err != nil || !out.Fallback {
		t.Fatalf("outcome %+v (%v), want fallback", out, err)
	}
	tr = lastTrace(t, e)
	if stages := attemptStages(tr); !slices.Equal(stages, []string{"adapt"}) {
		t.Fatalf("attempt stages %v, want [adapt]", stages)
	}
	if tr.Attempts[0].OK || !strings.Contains(tr.Attempts[0].Err, "injected solver failure") {
		t.Fatalf("adapt attempt %+v, want the injected error", tr.Attempts[0])
	}
	if tr.Retries != 0 || tr.Outcome != obs.OutcomeFallback {
		t.Fatalf("trace %+v, want a fallback with no retry", tr)
	}
}

func TestSolveFailureJournaledAndTraced(t *testing.T) {
	e := testEngine(t, Config{Seed: 4})
	e.adapt = func(ctx context.Context, ps *core.PathSystem, d *demand.Demand, opt *core.AdaptOptions) (flow.Routing, error) {
		return nil, fmt.Errorf("injected solver failure")
	}
	out := solveOne(t, e, 0, 7, 1)
	if out.OK || !out.Fallback {
		t.Fatalf("outcome %+v, want fallback", out)
	}
	tr := lastTrace(t, e)
	if tr.Outcome != obs.OutcomeFallback {
		t.Fatalf("trace outcome %q, want fallback", tr.Outcome)
	}
	var failures []obs.Event
	for _, ev := range e.Events() {
		if ev.Type == obs.EventSolveFailure {
			failures = append(failures, ev)
		}
	}
	if len(failures) != 1 {
		t.Fatalf("solve-failure events: %d, want 1", len(failures))
	}
	det := failures[0].Detail
	if det["epoch"] != uint64(1) {
		t.Fatalf("failure event epoch %v (%T), want 1", det["epoch"], det["epoch"])
	}
	if s, _ := det["err"].(string); !strings.Contains(s, "injected solver failure") {
		t.Fatalf("failure event err %v, want the injected error", det["err"])
	}
}

func TestSlowSolveEmitsStructuredLog(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(syncWriter{mu: &mu, w: &buf}, nil))
	e := testEngine(t, Config{Seed: 5})
	e.tracer = obs.NewTracer(e.cfg.TraceDepth, time.Nanosecond, logger)
	if out := solveOne(t, e, 0, 7, 1); !out.OK {
		t.Fatalf("outcome %+v", out)
	}
	if got := e.metrics.slowSolves.Value(); got != 1 {
		t.Fatalf("slow_solves=%d, want 1", got)
	}
	mu.Lock()
	logged := buf.String()
	mu.Unlock()
	if !strings.Contains(logged, "slow epoch") {
		t.Fatalf("log %q, want a slow-epoch line", logged)
	}
	var line map[string]any
	if err := json.Unmarshal([]byte(strings.Split(logged, "\n")[0]), &line); err != nil {
		t.Fatalf("slow-epoch line is not JSON: %v", err)
	}
	if line["epoch"] != float64(1) || line["outcome"] != "solved" {
		t.Fatalf("slow-epoch line %v, want epoch 1 solved", line)
	}
}

type syncWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (s syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// TestJournalReconstructsFailureDrill drives fail -> degraded serve ->
// restore and asserts the whole sequence is reconstructible from the event
// journal alone: a link event, the ok->degraded health transition, the
// restore link event, and the degraded->ok transition, in seq order.
func TestJournalReconstructsFailureDrill(t *testing.T) {
	e, edges := diamondEngine(t)
	if _, err := e.FailEdges(edges[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RestoreEdges(edges[1]); err != nil {
		t.Fatal(err)
	}

	events := e.Events()
	var seq uint64
	for _, ev := range events {
		if ev.Seq <= seq {
			t.Fatalf("journal out of order: %d after %d", ev.Seq, seq)
		}
		seq = ev.Seq
	}
	var health []string
	var links int
	for _, ev := range events {
		switch ev.Type {
		case obs.EventHealth:
			health = append(health, fmt.Sprintf("%v->%v", ev.Detail["from"], ev.Detail["to"]))
		case obs.EventLink:
			links++
		}
	}
	if links != 2 {
		t.Fatalf("link events: %d, want 2 (fail + restore)", links)
	}
	if len(health) != 2 || health[0] != "ok->degraded" || health[1] != "degraded->ok" {
		t.Fatalf("health transitions %v, want [ok->degraded degraded->ok]", health)
	}
}

func TestCapacityEventJournaled(t *testing.T) {
	e, edges := diamondEngine(t)
	if _, err := e.setCapacity(edges[0], 0.5); err != nil {
		t.Fatal(err)
	}
	var caps []obs.Event
	for _, ev := range e.Events() {
		if ev.Type == obs.EventCapacity {
			caps = append(caps, ev)
		}
	}
	if len(caps) != 1 {
		t.Fatalf("capacity events: %d, want 1", len(caps))
	}
	if caps[0].Detail["edge"] != edges[0] || caps[0].Detail["capacity"] != 0.5 {
		t.Fatalf("capacity event detail %v", caps[0].Detail)
	}
}

// weakLinkEngine is proactiveEngine's topology: pair (0,4) has a single
// installed candidate 0-4, and alternates 0-1-3-4 / 0-2-5-3-4 exist in the
// graph for widening to discover.
func weakLinkEngine(t *testing.T) (*Engine, map[string]int) {
	t.Helper()
	g := graph.New(6)
	ids := map[string]int{
		"01": g.AddUnitEdge(0, 1),
		"13": g.AddUnitEdge(1, 3),
		"02": g.AddUnitEdge(0, 2),
		"25": g.AddUnitEdge(2, 5),
		"53": g.AddUnitEdge(5, 3),
		"04": g.AddUnitEdge(0, 4),
		"43": g.AddUnitEdge(4, 3),
	}
	ps := core.NewPathSystem(g)
	for _, p := range []graph.Path{
		{Src: 0, Dst: 3, EdgeIDs: []int{ids["01"], ids["13"]}},
		{Src: 0, Dst: 3, EdgeIDs: []int{ids["02"], ids["25"], ids["53"]}},
		{Src: 0, Dst: 4, EdgeIDs: []int{ids["04"]}},
	} {
		if err := ps.AddPath(p); err != nil {
			t.Fatal(err)
		}
	}
	e, err := New(Config{Graph: g, System: ps, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e, ids
}

// TestHeadroomWideningDisabledByDefault: a brownout alone widens nothing,
// even one that leaves a pair's only candidate on a weak link: only a
// failure puts a pair at risk.
func TestHeadroomWideningDisabledByDefault(t *testing.T) {
	e, ids := weakLinkEngine(t)
	if _, err := e.setCapacity(ids["04"], 0.2); err != nil {
		t.Fatal(err)
	}
	for _, ev := range e.Events() {
		if ev.Type == obs.EventWidening {
			t.Fatalf("widening event %v after a brownout", ev)
		}
	}
	if n := linksOf(e).AtRiskPairs; n != 0 {
		t.Fatalf("at-risk pairs: %d, want 0 after a brownout", n)
	}
}

func TestHTTPTraceEventsAndMetrics(t *testing.T) {
	_, e, ts := testServer(t, Config{Seed: 9}, "")
	if out := solveOne(t, e, 0, 7, 1); !out.OK {
		t.Fatalf("outcome %+v", out)
	}
	if out := solveOne(t, e, 1, 6, 1); !out.OK {
		t.Fatalf("outcome %+v", out)
	}

	code, body := getJSON(t, ts.URL+"/debug/trace")
	if code != http.StatusOK {
		t.Fatalf("/debug/trace status %d", code)
	}
	traces, _ := body["traces"].([]any)
	if len(traces) != 2 {
		t.Fatalf("traces: %d, want 2", len(traces))
	}
	first, _ := traces[0].(map[string]any)
	if first["epoch"] != float64(2) || first["outcome"] != "solved" {
		t.Fatalf("newest trace %v, want epoch 2 solved", first)
	}

	code, body = getJSON(t, ts.URL+"/debug/trace?n=1")
	if code != http.StatusOK {
		t.Fatalf("/debug/trace?n=1 status %d", code)
	}
	if traces, _ := body["traces"].([]any); len(traces) != 1 {
		t.Fatalf("traces with n=1: %d, want 1", len(traces))
	}
	if code, _ := getJSON(t, ts.URL+"/debug/trace?n=bogus"); code != http.StatusBadRequest {
		t.Fatalf("/debug/trace?n=bogus status %d, want 400", code)
	}

	code, body = getJSON(t, ts.URL+"/debug/events")
	if code != http.StatusOK {
		t.Fatalf("/debug/events status %d", code)
	}
	if _, ok := body["events"]; !ok {
		t.Fatalf("/debug/events body %v, want an events key", body)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("/metrics content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(raw); err != nil {
		t.Fatalf("/metrics is not valid exposition: %v\n%s", err, raw)
	}
	for _, want := range []string{
		"sparseroute_engine_epochs_received 2",
		"sparseroute_engine_epochs_solved 2",
		`sparseroute_engine_solve_latency_seconds{stat="p50"}`,
		"sparseroute_engine_path_system_info{",
	} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, raw)
		}
	}
}

// TestMetricsWindowsReadTraces: the latency, congestion and queue-wait
// windows on /metrics summarize the epochs /debug/trace shows — latency and
// congestion over the solved ones, queue wait over all but the interim
// renormalized publishes — and the default trace depth keeps more than 64
// epochs. The run mixes solved epochs, a fallback and a link event with its
// interim publish, so each window has traces to leave out.
func TestMetricsWindowsReadTraces(t *testing.T) {
	_, e, ts := testServer(t, Config{Seed: 9}, "")
	const solves = 70
	for i := 0; i < solves; i++ {
		if out := solveOne(t, e, i%4, 7-i%4, 1+float64(i%3)); !out.OK {
			t.Fatalf("epoch %d: %+v", i, out)
		}
	}
	e.adapt = func(context.Context, *core.PathSystem, *demand.Demand, *core.AdaptOptions) (flow.Routing, error) {
		return nil, fmt.Errorf("injected solver failure")
	}
	if out := solveOne(t, e, 0, 7, 1); !out.Fallback {
		t.Fatalf("failing solve: %+v", out)
	}
	e.adapt = defaultAdapt
	if _, err := e.FailEdges(0); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, e)

	code, body := getJSON(t, ts.URL+"/debug/trace")
	if code != http.StatusOK {
		t.Fatalf("/debug/trace status %d", code)
	}
	var latency, congestion, queue []float64
	outcomes := map[string]int{}
	for _, x := range body["traces"].([]any) {
		tr := x.(map[string]any)
		outcome := tr["outcome"].(string)
		outcomes[outcome]++
		if outcome == obs.OutcomeSolved {
			latency = append(latency, tr["solve_ms"].(float64)/1000)
			congestion = append(congestion, tr["congestion"].(float64))
		}
		if outcome != obs.OutcomeRenormalized {
			queue = append(queue, tr["queue_wait_ms"].(float64)/1000)
		}
	}
	if outcomes[obs.OutcomeSolved] <= solves || outcomes[obs.OutcomeFallback] != 1 || outcomes[obs.OutcomeRenormalized] != 1 {
		t.Fatalf("trace outcomes %v, want over %d solved (the re-adapt too), 1 fallback, 1 renormalized", outcomes, solves)
	}

	metrics := getMetrics(t, ts.URL+"/metrics")
	for _, w := range []struct {
		name string
		xs   []float64
	}{
		{"solve_latency_seconds", latency},
		{"congestion", congestion},
		{"queue_wait_seconds", queue},
	} {
		want := map[string]float64{"count": float64(len(w.xs)), "p50": stats.Quantile(w.xs, 0.5), "max": stats.Max(w.xs)}
		for stat, v := range want {
			key := fmt.Sprintf("%s{stat=%q}", w.name, stat)
			if got, ok := metrics[key]; !ok || got != v {
				t.Errorf("%s = %v (present %v), recomputed from /debug/trace %v", key, got, ok, v)
			}
		}
	}
}

// TestObsScrapeDuringSolves hammers the trace ring, journal, and Prometheus
// rendering while epochs solve and link events apply — the race detector is
// the assertion.
func TestObsScrapeDuringSolves(t *testing.T) {
	e, edges := diamondEngine(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			e.Tracer().Traces(0)
			e.Events()
			p := obs.NewProm()
			p.FromVars("sparseroute_engine", nil, e.Metrics().Vars())
			var sb strings.Builder
			if _, err := p.WriteTo(&sb); err != nil {
				t.Errorf("render: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := e.FailEdges(edges[1]); err != nil {
				t.Errorf("fail: %v", err)
				return
			}
			if _, err := e.RestoreEdges(edges[1]); err != nil {
				t.Errorf("restore: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 10; i++ {
		solveOne(t, e, 0, 1, 1)
	}
	close(stop)
	wg.Wait()
}
