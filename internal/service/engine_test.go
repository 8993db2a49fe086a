package service

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"sparseroute/internal/core"
	"sparseroute/internal/demand"
	"sparseroute/internal/flow"
	"sparseroute/internal/graph"
	"sparseroute/internal/graph/gen"
	"sparseroute/internal/oblivious"
)

func testEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	if cfg.Graph == nil {
		cfg.Graph = gen.Hypercube(3)
	}
	if cfg.Router == nil && cfg.System == nil {
		r, err := oblivious.Build("valiant", cfg.Graph, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Router = r
		cfg.RouterName = "valiant"
	}
	if cfg.R == 0 {
		cfg.R = 3
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// The tests drive the engine through the two record interpreters with the
// records the Go API and the HTTP layer build: a full matrix, a patch, and
// the link-event bodies of POST /v1/links.

func (e *Engine) submit(d *demand.Demand) (uint64, error) {
	return e.acceptDemand(context.Background(), submitOp(d))
}

func (e *Engine) patch(set []PairAmount, clear []PairRef) (uint64, error) {
	return e.acceptDemand(context.Background(), &walOp{Op: walOpPatch, Set: set, Clear: clear})
}

func (e *Engine) updateLinks(fail, restore []int) (*LinkUpdate, error) {
	return e.applyLinkEvent(&walOp{Op: walOpLinks, Fail: fail, Restore: restore})
}

func (e *Engine) setLinkState(failed []int) (*LinkUpdate, error) {
	return e.applyLinkEvent(&walOp{Op: walOpLinks, Fail: failed, Replace: true})
}

func (e *Engine) setCapacity(id int, capacity float64) (*LinkUpdate, error) {
	return e.applyLinkEvent(&walOp{Op: walOpLinks, Caps: []EdgeCapacity{{Edge: id, Capacity: capacity}}})
}

// tuneAdapt applies tune to the solver options of every adaptation attempt e
// makes, through the e.adapt seam. Call it before the first submit.
func tuneAdapt(e *Engine, tune func(*core.AdaptOptions)) {
	e.adapt = func(ctx context.Context, ps *core.PathSystem, d *demand.Demand, opt *core.AdaptOptions) (flow.Routing, error) {
		tune(opt)
		return defaultAdapt(ctx, ps, d, opt)
	}
}

func TestEngineSolvesEpochAndPublishes(t *testing.T) {
	e := testEngine(t, Config{Seed: 1})
	d := demand.New()
	d.Set(0, 7, 2)
	d.Set(1, 6, 1)
	epoch, err := e.submit(d)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("epoch=%d, want 1", epoch)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := e.Wait(ctx, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK || out.Fallback || out.Congestion <= 0 {
		t.Fatalf("outcome %+v", out)
	}
	st := e.Active()
	if st == nil || st.Epoch != 1 {
		t.Fatalf("active state %+v", st)
	}
	if st.Congestion <= 0 {
		t.Fatalf("congestion %v", st.Congestion)
	}
	// The routing actually carries the demand.
	var total float64
	for _, wp := range st.Routing[demand.MakePair(0, 7)] {
		total += wp.Weight
	}
	if total < 1.99 || total > 2.01 {
		t.Fatalf("pair (0,7) carries %v, want 2", total)
	}
}

func TestEngineRejectsBadDemands(t *testing.T) {
	e := testEngine(t, Config{Seed: 1})
	if _, err := e.submit(demand.New()); err == nil {
		t.Fatal("empty demand accepted")
	}
	d := demand.New()
	d.Set(0, 99, 1)
	if _, err := e.submit(d); err == nil {
		t.Fatal("out-of-range demand accepted")
	}
}

func TestEngineEpochsAreMonotonic(t *testing.T) {
	e := testEngine(t, Config{Seed: 1, Workers: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var last uint64
	for i := 0; i < 8; i++ {
		d := demand.New()
		d.Set(i%4, 4+i%4, 1+float64(i))
		epoch, err := e.submit(d)
		if err != nil {
			t.Fatal(err)
		}
		if epoch <= last {
			t.Fatalf("epoch %d not monotonic after %d", epoch, last)
		}
		last = epoch
		if _, err := e.Wait(ctx, epoch); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Active(); st == nil || st.Epoch != last {
		t.Fatalf("active epoch %+v, want %d", st, last)
	}
	if got := e.Metrics().solved.Value(); got != 8 {
		t.Fatalf("solved=%d, want 8", got)
	}
}

func TestEngineDeadlineFallback(t *testing.T) {
	// A deadline far below any real solve time forces the fallback path.
	e := testEngine(t, Config{Seed: 1, SolveDeadline: time.Nanosecond})
	d := demand.New()
	d.Set(0, 7, 1)
	epoch, err := e.submit(d)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := e.Wait(ctx, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Fallback || out.OK {
		t.Fatalf("outcome %+v, want deadline fallback", out)
	}
	if e.Metrics().fallbacks.Value() != 1 || e.Metrics().deadlineMissed.Value() != 1 {
		t.Fatalf("fallback counters not incremented")
	}
}

func TestEngineCloseRejectsNewDemands(t *testing.T) {
	e := testEngine(t, Config{Seed: 1})
	e.Close()
	d := demand.New()
	d.Set(0, 7, 1)
	if _, err := e.submit(d); err != errClosed {
		t.Fatalf("err=%v, want errClosed", err)
	}
}

func TestEngineSnapshotRestoreSameHash(t *testing.T) {
	e := testEngine(t, Config{Seed: 42})
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
		t.Fatalf("restored hash %016x != original %016x", restored.Hash(), e.Hash())
	}
	// The restored engine serves without any router configured.
	d := demand.New()
	d.Set(0, 7, 1)
	epoch, err := restored.submit(d)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := restored.Wait(ctx, epoch)
	if err != nil || !out.OK {
		t.Fatalf("restored engine solve: %v %+v", err, out)
	}
}

func TestEngineRestoredSystemCoversSamePairs(t *testing.T) {
	g := gen.Hypercube(3)
	r, err := oblivious.Build("spf", g, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := core.RSample(r, core.AllPairs(g.NumVertices()), 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Graph: g, System: ps})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.System().TotalPaths() != ps.TotalPaths() {
		t.Fatal("engine must serve the provided system as-is")
	}
}

// slowSolveEngine builds an engine over a hand-made two-path system where the
// solver path is demand-selectable: a demand on (0,3) sees two candidate
// variables and (with ExactThreshold 1) is forced onto an MWU solve sized to
// run for minutes, while a demand on (0,1) sees one variable and solves with
// the instant exact LP. That lets one test submit a deliberately slow epoch
// followed by a fast one on the same engine.
func slowSolveEngine(t *testing.T, deadline time.Duration) *Engine {
	t.Helper()
	g := graph.New(4)
	a1 := g.AddUnitEdge(0, 1)
	a2 := g.AddUnitEdge(1, 3)
	b1 := g.AddUnitEdge(0, 2)
	b2 := g.AddUnitEdge(2, 3)
	ps := core.NewPathSystem(g)
	for _, p := range []graph.Path{
		{Src: 0, Dst: 3, EdgeIDs: []int{a1, a2}},
		{Src: 0, Dst: 3, EdgeIDs: []int{b1, b2}},
		{Src: 0, Dst: 1, EdgeIDs: []int{a1}},
	} {
		if err := ps.AddPath(p); err != nil {
			t.Fatal(err)
		}
	}
	e, err := New(Config{
		Graph:         g,
		System:        ps,
		Workers:       1,
		SolveDeadline: deadline,
	})
	if err != nil {
		t.Fatal(err)
	}
	tuneAdapt(e, func(o *core.AdaptOptions) {
		o.ExactThreshold = 1
		o.MWU.Iterations = 1 << 30
	})
	return e
}

// TestEngineCanceledSolveFreesWorker is the acceptance test for cancelable
// solves: a slow epoch misses its deadline, the cancellation frees the single
// pool worker, the immediately following epoch solves successfully, and Close
// returns promptly because no detached adaptation goroutine survives.
func TestEngineCanceledSolveFreesWorker(t *testing.T) {
	e := slowSolveEngine(t, 100*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	slow := demand.New()
	slow.Set(0, 3, 2)
	epoch1, err := e.submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Wait(ctx, epoch1)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Fallback || out.OK {
		t.Fatalf("slow epoch outcome %+v, want deadline fallback", out)
	}
	if got := e.Metrics().canceled.Value(); got != 1 {
		t.Fatalf("solves_canceled=%d, want 1", got)
	}
	if got := e.Metrics().deadlineMissed.Value(); got != 1 {
		t.Fatalf("solve_deadline_missed=%d, want 1", got)
	}

	// The worker must be free: the next epoch solves well within the
	// deadline on the exact LP path.
	fast := demand.New()
	fast.Set(0, 1, 1)
	epoch2, err := e.submit(fast)
	if err != nil {
		t.Fatal(err)
	}
	out, err = e.Wait(ctx, epoch2)
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK {
		t.Fatalf("fast epoch outcome %+v, want success", out)
	}
	if st := e.Active(); st == nil || st.Epoch != epoch2 {
		t.Fatalf("active state %+v, want epoch %d", st, epoch2)
	}

	// Close must not wait on any orphaned solve (the old design's detached
	// goroutine would have burned ~2^30 MWU iterations here).
	start := time.Now()
	e.Close()
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("Close took %v; an orphaned solve survived", elapsed)
	}
}

// TestEngineCloseCancelsInFlightSolve: Close aborts a running solve through
// the root context even when no deadline is configured.
func TestEngineCloseCancelsInFlightSolve(t *testing.T) {
	e := slowSolveEngine(t, 0) // no deadline: only Close can stop the solve
	slow := demand.New()
	slow.Set(0, 3, 2)
	epoch, err := e.submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	e.Close()
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("Close took %v; in-flight solve was not canceled", elapsed)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := e.Wait(ctx, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Fallback {
		t.Fatalf("outcome %+v, want close-canceled fallback", out)
	}
	if e.Metrics().canceled.Value() != 1 {
		t.Fatal("solves_canceled not incremented by Close")
	}
}

// TestEngineWaitUnknownEpoch: epoch 0, never-assigned epochs, and epochs
// evicted from the bounded outcome history fail fast with errUnknownEpoch
// instead of blocking until the caller's context expires.
func TestEngineWaitUnknownEpoch(t *testing.T) {
	e := testEngine(t, Config{Seed: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	if _, err := e.Wait(ctx, 0); !errors.Is(err, errUnknownEpoch) {
		t.Fatalf("Wait(0): err=%v, want errUnknownEpoch", err)
	}
	if _, err := e.Wait(ctx, 42); !errors.Is(err, errUnknownEpoch) {
		t.Fatalf("Wait(unassigned): err=%v, want errUnknownEpoch", err)
	}

	// Push the first epoch out of the 128-entry outcome history.
	var last uint64
	for i := 0; i < 130; i++ {
		d := demand.New()
		d.Set(0, 7, 1)
		epoch, err := e.submit(d)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Wait(ctx, epoch); err != nil {
			t.Fatal(err)
		}
		last = epoch
	}
	if _, err := e.Wait(ctx, 1); !errors.Is(err, errUnknownEpoch) {
		t.Fatalf("Wait(evicted): err=%v, want errUnknownEpoch", err)
	}
	if out, err := e.Wait(ctx, last); err != nil || !out.OK {
		t.Fatalf("Wait(retained): %v %+v", err, out)
	}
}
