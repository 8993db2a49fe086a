package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sparseroute/internal/core"
	"sparseroute/internal/demand"
	"sparseroute/internal/flow"
	"sparseroute/internal/graph"
	"sparseroute/internal/obs"
)

// waitCtx returns a generous context for waiting on epochs.
// linksOf reports e's current link state as an update without the state
// pointer, so that two reports compare by value.
func linksOf(e *Engine) *LinkUpdate {
	u := reportLinks(e.links.Load())
	u.links = nil
	return u
}

func waitCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// routingAvoids fails the test if any published path rides a failed edge.
func routingAvoids(t *testing.T, r flow.Routing, failed map[int]bool) {
	t.Helper()
	for pair, wps := range r {
		for _, wp := range wps {
			for _, id := range wp.Path.EdgeIDs {
				if failed[id] {
					t.Fatalf("pair %v still routed over failed edge %d", pair, id)
				}
			}
		}
	}
}

func TestEngineFailRestoreLifecycle(t *testing.T) {
	e := testEngine(t, Config{Seed: 7})
	ctx := waitCtx(t)

	d := demand.New()
	d.Set(0, 7, 2)
	epoch, err := e.submit(d)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := e.Wait(ctx, epoch); err != nil || !out.OK {
		t.Fatalf("initial solve: %v %+v", err, out)
	}
	hashBefore := e.Hash()
	installedBefore := e.installedSystem().TotalPaths()

	// Fail one edge the active routing uses, so renormalization has real work.
	st := e.Active()
	failedID := st.Routing[demand.MakePair(0, 7)][0].Path.EdgeIDs[0]
	update, err := e.FailEdges(failedID)
	if err != nil {
		t.Fatal(err)
	}
	if update.Version != 2 || len(update.FailedEdges) != 1 || update.FailedEdges[0] != failedID {
		t.Fatalf("update %+v", update)
	}
	if !update.Degraded {
		t.Fatal("one failed edge must report degraded")
	}

	// The interim renormalized routing published synchronously: no path of
	// the active routing touches the failed edge anymore.
	st = e.Active()
	if st.Epoch != epoch+1 {
		t.Fatalf("active epoch %d, want interim %d", st.Epoch, epoch+1)
	}
	routingAvoids(t, st.Routing, map[int]bool{failedID: true})
	interim, err := e.Wait(ctx, epoch+1)
	if err != nil || !interim.OK || !interim.Renormalized {
		t.Fatalf("interim outcome: %v %+v", err, interim)
	}
	// The full re-adapt epoch follows through the solver.
	resolved, err := e.Wait(ctx, epoch+2)
	if err != nil || !resolved.OK {
		t.Fatalf("re-adapt outcome: %v %+v", err, resolved)
	}
	routingAvoids(t, e.Active().Routing, map[int]bool{failedID: true})

	// Health reflects the degraded link state.
	h := e.Health()
	if h.Status != HealthDegraded || len(h.FailedEdges) != 1 || h.FailedEdges[0] != failedID {
		t.Fatalf("health %+v", h)
	}

	// The surviving hypercube is still connected, so every pair is covered —
	// either its sample survived the pruning or recovery resampling drew
	// replacements. The hash moves only in the latter case.
	if n := len(e.links.Load().uncovered); n != 0 {
		t.Fatalf("connected survivor graph left %d pairs uncovered", n)
	}
	if update.RecoveredPairs == 0 && e.Hash() != hashBefore {
		t.Fatal("fail event without recovery must not change the installed-system hash")
	}
	if update.RecoveredPairs > 0 && e.Hash() == hashBefore {
		t.Fatal("recovery resampling must change the installed-system hash")
	}

	// Restore: serving == installed again, health back to ok.
	update, err = e.RestoreEdges(failedID)
	if err != nil {
		t.Fatal(err)
	}
	if update.Degraded || len(update.FailedEdges) != 0 {
		t.Fatalf("restore update %+v", update)
	}
	if h := e.Health(); h.Status != HealthOK {
		t.Fatalf("health after restore %+v", h)
	}
	if got, installed := e.System().TotalPaths(), e.installedSystem().TotalPaths(); got != installed {
		t.Fatalf("serving %d paths after restore, installed has %d", got, installed)
	}
	if got := e.installedSystem().TotalPaths(); got < installedBefore {
		t.Fatalf("installed shrank: %d < %d", got, installedBefore)
	}
	if e.links.Load().degradedSeconds() <= 0 {
		t.Fatal("degraded time was not accounted")
	}
}

func TestEngineLinkEventValidation(t *testing.T) {
	e := testEngine(t, Config{Seed: 7})
	if _, err := e.FailEdges(-1); !errors.Is(err, errUnknownEdge) {
		t.Fatalf("err=%v, want errUnknownEdge", err)
	}
	if _, err := e.FailEdges(10_000); !errors.Is(err, errUnknownEdge) {
		t.Fatalf("err=%v, want errUnknownEdge", err)
	}
	// A no-op event does not bump the version.
	v := linksOf(e).Version
	if u, err := e.RestoreEdges(0); err != nil || u.Version != v {
		t.Fatalf("no-op restore bumped version: %v %+v", err, u)
	}
	e.Close()
	if _, err := e.FailEdges(0); !errors.Is(err, errClosed) {
		t.Fatalf("err=%v, want errClosed after Close", err)
	}
}

// TestHealthDoesNotWaitForLinkEvent: a link event holds mu across its WAL
// append, fsync and publish. A readiness probe and a metric scrape read the
// published link state instead, so neither may wait for the event.
func TestHealthDoesNotWaitForLinkEvent(t *testing.T) {
	e, edges := diamondEngine(t)
	if _, err := e.FailEdges(edges[1]); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(e, "")
	e.mu.Lock() // an event committing
	defer e.mu.Unlock()

	health := make(chan *Health, 1)
	go func() { health <- e.Health() }()
	scrape := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		scrape <- rec
	}()
	timeout := time.After(time.Second)
	select {
	case h := <-health:
		if h.Status != HealthDegraded || h.DegradedSeconds <= 0 {
			t.Fatalf("health %+v, want degraded with its degraded time", h)
		}
	case <-timeout:
		t.Fatal("Health waited for the link event's lock")
	}
	select {
	case rec := <-scrape:
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "degraded_seconds") {
			t.Fatalf("/metrics %d %q", rec.Code, rec.Body)
		}
	case <-timeout:
		t.Fatal("/metrics waited for the link event's lock")
	}
}

// TestHealthDoesNotWaitForDemandAccept: a demand accept holds mu across its
// step and WAL append, so Health and GET /healthz must not take mu. With mu held they
// still answer, and report the last finished epoch.
func TestHealthDoesNotWaitForDemandAccept(t *testing.T) {
	e, _ := diamondEngine(t)
	d := demand.New()
	d.Set(0, 3, 1)
	submitAndWait(t, e, d)
	srv := NewServer(e, "")
	e.mu.Lock() // a demand accept in flight
	defer e.mu.Unlock()

	health := make(chan *Health, 1)
	go func() { health <- e.Health() }()
	probe := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		probe <- rec
	}()
	timeout := time.After(time.Second)
	select {
	case h := <-health:
		if h.Status != HealthOK || h.LastOutcome == nil || !h.LastOutcome.OK {
			t.Fatalf("health %+v, want ok with the solved epoch's outcome", h)
		}
	case <-timeout:
		t.Fatal("Health waited for the demand accept's lock")
	}
	select {
	case rec := <-probe:
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"last_outcome"`) {
			t.Fatalf("/healthz %d %q", rec.Code, rec.Body)
		}
	case <-timeout:
		t.Fatal("/healthz waited for the demand accept's lock")
	}
}

// diamondEngine builds an engine over a 4-cycle 0-1-3-2-0 whose hand-made
// system routes pair (0,3) only via 0-1-3: failing edge (1,3) kills every
// candidate of the pair while the graph stays connected via 0-2-3, which is
// exactly the recovery-resampling scenario.
func diamondEngine(t *testing.T) (*Engine, [4]int) {
	t.Helper()
	g := graph.New(4)
	a1 := g.AddUnitEdge(0, 1)
	a2 := g.AddUnitEdge(1, 3)
	b1 := g.AddUnitEdge(0, 2)
	b2 := g.AddUnitEdge(2, 3)
	ps := core.NewPathSystem(g)
	for _, p := range []graph.Path{
		{Src: 0, Dst: 3, EdgeIDs: []int{a1, a2}},
		{Src: 0, Dst: 1, EdgeIDs: []int{a1}},
		{Src: 2, Dst: 3, EdgeIDs: []int{b2}},
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
	return e, [4]int{a1, a2, b1, b2}
}

func TestEngineRecoveryResampling(t *testing.T) {
	e, edges := diamondEngine(t)
	hashBefore := e.Hash()

	update, err := e.FailEdges(edges[1]) // kill 1-3: pair (0,3) loses its only path
	if err != nil {
		t.Fatal(err)
	}
	if update.RecoveredPairs != 1 || update.RecoveryPaths == 0 {
		t.Fatalf("expected recovery resampling, got %+v", update)
	}
	if update.UncoveredPairs != 0 {
		t.Fatalf("pair (0,3) should be re-covered: %+v", update)
	}
	// The recovered candidates avoid the failed edge (they were drawn on the
	// pruned graph) and the installed-system hash changed.
	cands := e.System().Unique(0, 3)
	if len(cands) == 0 {
		t.Fatal("no serving candidates for (0,3) after recovery")
	}
	for _, p := range cands {
		for _, id := range p.EdgeIDs {
			if id == edges[1] {
				t.Fatal("recovery path uses the failed edge")
			}
		}
	}
	if e.Hash() == hashBefore {
		t.Fatal("recovery resampling must change the installed-system hash")
	}

	// The engine actually serves the recovered pair.
	d := demand.New()
	d.Set(0, 3, 1)
	epoch, err := e.submit(d)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Wait(waitCtx(t), epoch)
	if err != nil || !out.OK {
		t.Fatalf("solve on recovered pair: %v %+v", err, out)
	}
	routingAvoids(t, e.Active().Routing, map[int]bool{edges[1]: true})

	// Restoring brings the original candidate back, and with nothing
	// impaired the installed system — and its hash — is exactly the startup
	// sample again.
	if _, err := e.RestoreEdges(edges[1]); err != nil {
		t.Fatal(err)
	}
	if e.Hash() != hashBefore {
		t.Fatal("full restore must return to the startup hash")
	}
	if got := len(e.System().Unique(0, 3)); got != 1 {
		t.Fatalf("want exactly the original candidate after the restore, got %d", got)
	}
}

func TestEngineDisconnectedPairStaysUncovered(t *testing.T) {
	// Path graph 0-1-2: failing edge (0,1) isolates vertex 0, so pair (0,2)
	// cannot be recovered and the engine serves degraded.
	g := graph.New(3)
	e1 := g.AddUnitEdge(0, 1)
	e2 := g.AddUnitEdge(1, 2)
	ps := core.NewPathSystem(g)
	for _, p := range []graph.Path{
		{Src: 0, Dst: 2, EdgeIDs: []int{e1, e2}},
		{Src: 1, Dst: 2, EdgeIDs: []int{e2}},
	} {
		if err := ps.AddPath(p); err != nil {
			t.Fatal(err)
		}
	}
	e, err := New(Config{Graph: g, System: ps, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	update, err := e.FailEdges(e1)
	if err != nil {
		t.Fatal(err)
	}
	if update.UncoveredPairs != 1 || update.RecoveredPairs != 0 {
		t.Fatalf("disconnected pair must stay uncovered: %+v", update)
	}
	if h := e.Health(); h.Status != HealthDegraded || h.UncoveredPairs != 1 {
		t.Fatalf("health %+v", h)
	}

	// A demand mixing a dead pair and a live pair is accepted and served
	// degraded: the dead pair is dropped and counted.
	d := demand.New()
	d.Set(0, 2, 1)
	d.Set(1, 2, 1)
	epoch, err := e.submit(d)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Wait(waitCtx(t), epoch)
	if err != nil || !out.OK {
		t.Fatalf("degraded solve: %v %+v", err, out)
	}
	if out.DroppedPairs != 1 {
		t.Fatalf("dropped_pairs=%d, want 1", out.DroppedPairs)
	}
	if got := e.Active().Demand.SupportSize(); got != 1 {
		t.Fatalf("served support %d, want 1", got)
	}

	// A demand only on the dead pair falls back (nothing servable).
	dead := demand.New()
	dead.Set(0, 2, 1)
	epoch, err = e.submit(dead)
	if err != nil {
		t.Fatal(err)
	}
	out, err = e.Wait(waitCtx(t), epoch)
	if err != nil || !out.Fallback {
		t.Fatalf("all-dead solve: %v %+v", err, out)
	}

	// Healthy again, both pairs are served; failing the edge once more drops
	// the dead pair from the interim renormalized publish as from the
	// re-adapt after it, in the outcome and the trace alike.
	if _, err := e.RestoreEdges(e1); err != nil {
		t.Fatal(err)
	}
	quiesce(t, e)
	if out = mustSolve(t, e, d); out.DroppedPairs != 0 {
		t.Fatalf("healthy solve dropped %d pairs", out.DroppedPairs)
	}
	if _, err := e.FailEdges(e1); err != nil {
		t.Fatal(err)
	}
	quiesce(t, e)
	traces := make(map[uint64]*obs.EpochTrace)
	for _, tr := range e.Tracer().Traces(0) {
		traces[tr.Epoch] = tr
	}
	for i, renormalized := range []bool{true, false} {
		epoch := out.Epoch + 1 + uint64(i)
		got, err := e.Wait(waitCtx(t), epoch)
		if err != nil || !got.OK || got.Renormalized != renormalized || got.DroppedPairs != 1 {
			t.Fatalf("epoch %d after the fail: %v %+v, want 1 dropped pair", epoch, err, got)
		}
		if tr := traces[epoch]; tr == nil || tr.DroppedPairs != 1 {
			t.Fatalf("epoch %d trace %+v, want 1 dropped pair", epoch, tr)
		}
	}
	// The interim's trace splits its time like a solved epoch's: solve and
	// publish are disjoint parts of the total.
	if tr := traces[out.Epoch+1]; tr.SolveMs+tr.PublishMs > tr.TotalMs {
		t.Fatalf("interim trace solve %vms + publish %vms > total %vms", tr.SolveMs, tr.PublishMs, tr.TotalMs)
	}
}

func TestEngineSnapshotWhileDegradedRestoresLinkState(t *testing.T) {
	e, edges := diamondEngine(t)
	if _, err := e.FailEdges(edges[1]); err != nil {
		t.Fatal(err)
	}
	// The snapshot carries the startup system and the failed-edge set;
	// Restore derives the recovery paths from the two again.
	var buf bytes.Buffer
	if err := e.writeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(bytes.NewReader(buf.Bytes()), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()

	if restored.Hash() != e.Hash() {
		t.Fatalf("restored hash %016x != degraded original %016x", restored.Hash(), e.Hash())
	}
	got, want := linksOf(restored), linksOf(e)
	if len(got.FailedEdges) != len(want.FailedEdges) || got.FailedEdges[0] != want.FailedEdges[0] {
		t.Fatalf("restored failed edges %v, want %v", got.FailedEdges, want.FailedEdges)
	}
	if got.UncoveredPairs != want.UncoveredPairs {
		t.Fatalf("restored uncovered %d, want %d", got.UncoveredPairs, want.UncoveredPairs)
	}
	if h := restored.Health(); h.Status != HealthDegraded {
		t.Fatalf("restored health %+v, want degraded", h)
	}
	// The restored engine serves the pair its own recovery pass re-covered,
	// on a survivor router built at restore.
	d := demand.New()
	d.Set(0, 3, 1)
	epoch, err := restored.submit(d)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := restored.Wait(waitCtx(t), epoch); err != nil || !out.OK {
		t.Fatalf("restored degraded solve: %v %+v", err, out)
	}
}

// TestEngineSolveRetryChain: an epoch makes at most two attempts. A delta
// solve that cannot build on the published state falls through to one cold
// solve, its one retry; a cold solve that fails is not retried: the epoch
// falls back and the previous routing keeps serving. TestEpochTraceRetryChain
// checks the traces of the same two epochs.
func TestEngineSolveRetryChain(t *testing.T) {
	e := testEngine(t, Config{Seed: 7})
	d := primeRetryChain(t, e)
	retries := e.metrics.solveRetries.Value()
	out := mustPatch(t, e, []PairAmount{{U: 0, V: 7, Amount: 2.02}}, nil)
	if out.Warm != obs.WarmCold || out.Retries != 1 || out.Renormalized {
		t.Fatalf("outcome %+v, want a cold solve after one retry", out)
	}
	if got := e.metrics.solveRetries.Value(); got != retries+1 {
		t.Fatalf("solve_retries=%d, want %d", got, retries+1)
	}

	// Every cold solve fails: one attempt, a fallback, one solve_failure.
	served := e.Active()
	calls := 0
	e.adapt = func(ctx context.Context, ps *core.PathSystem, d *demand.Demand, opt *core.AdaptOptions) (flow.Routing, error) {
		calls++
		return nil, fmt.Errorf("injected solver failure")
	}
	epoch, err := e.submit(d)
	if err != nil {
		t.Fatal(err)
	}
	out, err = e.Wait(waitCtx(t), epoch)
	if err != nil {
		t.Fatal(err)
	}
	if out.OK || !out.Fallback || out.Retries != 0 || calls != 1 {
		t.Fatalf("outcome %+v after %d solver calls, want a fallback after one call and no retry", out, calls)
	}
	failures := 0
	for _, ev := range e.Events() {
		if ev.Type == obs.EventSolveFailure {
			failures++
		}
	}
	if failures != 1 {
		t.Fatalf("solve_failure events: %d, want 1", failures)
	}
	if got := e.metrics.solveRetries.Value(); got != retries+1 {
		t.Fatalf("solve_retries=%d after a failed cold solve, want %d", got, retries+1)
	}
	if e.Active() != served {
		t.Fatalf("epoch %d published, want epoch %d still serving", e.Active().Epoch, served.Epoch)
	}
}

// primeRetryChain solves a two-pair demand on e and returns it, then
// republishes the epoch with its edge loads cut short, so that the next delta
// solve refuses a background that does not fit the graph and falls through to
// a cold solve.
func primeRetryChain(t *testing.T, e *Engine) *demand.Demand {
	t.Helper()
	d := demand.New()
	d.Set(0, 7, 2)
	d.Set(1, 6, 1)
	mustSolve(t, e, d)
	st := e.Active()
	e.active.Store(&State{
		Epoch: st.Epoch, Demand: st.Demand, Routing: st.Routing, Congestion: st.Congestion,
		EdgeLoads: st.EdgeLoads[:1], LinkVersion: st.LinkVersion, Anchor: st.Anchor, SolvedAt: st.SolvedAt,
	})
	return d
}

func attemptStages(tr *obs.EpochTrace) []string {
	stages := make([]string, len(tr.Attempts))
	for i, a := range tr.Attempts {
		stages[i] = a.Stage
	}
	return stages
}

// TestEngineFaultInjectionUnderTraffic is the race-focused harness: random
// edges of a hypercube die and recover while demand epochs stream in and
// readers hammer the lock-free surfaces. Run with -race. The end-state
// invariant: after all edges are restored, the engine reports ok, serves a
// fresh epoch, and every published routing stopped using an edge while that
// edge was failed (checked on the quiesced final state).
func TestEngineFaultInjectionUnderTraffic(t *testing.T) {
	e := testEngine(t, Config{Seed: 9, Workers: 2})
	ctx := waitCtx(t)
	m := e.cfg.Graph.NumEdges()

	var wg sync.WaitGroup
	// Demand writers.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 0xfa17))
			for i := 0; i < 10; i++ {
				d := demand.New()
				u := rng.IntN(8)
				v := (u + 1 + rng.IntN(7)) % 8
				d.Set(u, v, 1+float64(rng.IntN(3)))
				epoch, err := e.submit(d)
				if err != nil {
					t.Error(err)
					return
				}
				e.Wait(ctx, epoch)
			}
		}(w)
	}
	// Chaos: kill, restore, and partially degrade random edges mid-traffic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewPCG(0xdead, 0xbeef))
		for i := 0; i < 16; i++ {
			id := rng.IntN(m)
			var err error
			switch rng.IntN(4) {
			case 0:
				_, err = e.FailEdges(id)
			case 1:
				_, err = e.RestoreEdges(id)
			case 2:
				_, err = e.setCapacity(id, 0.25+0.5*rng.Float64())
			default:
				_, err = e.setCapacity(id, 1)
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Lock-free readers.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				e.Health()
				linksOf(e)
				e.System().TotalPaths()
				if st := e.Active(); st != nil {
					st.Routing.MaxCongestion(e.cfg.Graph)
				}
			}
		}()
	}
	wg.Wait()

	// Restore everything and verify the engine converges back to ok.
	all := make([]int, m)
	for i := range all {
		all[i] = i
	}
	if _, err := e.RestoreEdges(all...); err != nil {
		t.Fatal(err)
	}
	if h := e.Health(); h.Status != HealthOK || h.UncoveredPairs != 0 {
		t.Fatalf("health after full restore %+v", h)
	}
	d := demand.New()
	d.Set(0, 7, 1)
	epoch, err := e.submit(d)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := e.Wait(ctx, epoch); err != nil || !out.OK {
		t.Fatalf("post-chaos solve: %v %+v", err, out)
	}
}

// TestLastOutcomeNeverGoesBack: a link event's interim renormalization can
// finish after the re-adapt queued behind it, and /healthz must then still
// report the re-adapt, the newest epoch, or a client waiting for it (as the
// bench's link-event loop does) never sees it.
func TestLastOutcomeNeverGoesBack(t *testing.T) {
	_, e, _ := testServer(t, Config{Seed: 3}, "")
	e.finish(&Outcome{Epoch: 8, OK: true, Congestion: 1.5}, nil)
	e.finish(&Outcome{Epoch: 7, OK: true, Renormalized: true, Congestion: 2}, nil)
	if lo := e.Health().LastOutcome; lo == nil || lo.Epoch != 8 || lo.Renormalized {
		t.Fatalf("last outcome %+v, want the re-adapt's (epoch 8)", lo)
	}
	e.finish(&Outcome{Epoch: 9, OK: true, Congestion: 1.4}, nil)
	if lo := e.Health().LastOutcome; lo == nil || lo.Epoch != 9 {
		t.Fatalf("last outcome %+v, want epoch 9", lo)
	}
}
