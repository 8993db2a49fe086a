package service

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"

	"sparseroute/internal/core"
	"sparseroute/internal/demand"
	"sparseroute/internal/graph/gen"
	"sparseroute/internal/oblivious"
	"sparseroute/internal/obs"
)

// warmPair builds a warm engine and its warm-disabled twin on a 4x4 grid,
// both forcing the MWU solver so the warm seam actually engages (the exact
// LP would absorb every solve at this size).
func warmPair(t *testing.T) (*Engine, *Engine) {
	t.Helper()
	g := gen.Grid(4, 4)
	router, err := oblivious.Build("raecke", g, &oblivious.BuildOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Graph: g, Router: router, RouterName: "raecke",
		R: 3, Seed: 1, Workers: 1,
	}
	warm, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(warm.Close)
	cold, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cold.Close)
	cold.coldOnly = true
	mwuOnly(warm)
	mwuOnly(cold)
	return warm, cold
}

// mwuOnly forces e's solves onto the MWU solver.
func mwuOnly(e *Engine) {
	tuneAdapt(e, func(o *core.AdaptOptions) { o.ExactThreshold = -1 })
}

func mustSolve(t *testing.T, e *Engine, d *demand.Demand) *Outcome {
	t.Helper()
	epoch, err := e.submit(d)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Wait(context.Background(), epoch)
	if err != nil || !out.OK {
		t.Fatalf("epoch did not solve: err=%v out=%+v", err, out)
	}
	return out
}

func mustPatch(t *testing.T, e *Engine, set []PairAmount, clear []PairRef) *Outcome {
	t.Helper()
	epoch, err := e.patch(set, clear)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Wait(context.Background(), epoch)
	if err != nil || !out.OK {
		t.Fatalf("patch epoch did not solve: err=%v out=%+v", err, out)
	}
	return out
}

func gridDemand(n int, seed uint64) *demand.Demand {
	rng := rand.New(rand.NewPCG(seed, 0xfeed))
	d := demand.New()
	for k := 0; k < n/2; k++ {
		u, v := rng.IntN(n), rng.IntN(n)
		if u == v {
			continue
		}
		d.Set(u, v, 0.5+rng.Float64())
	}
	return d
}

// TestEngineWarmWithinOnePercentOfCold drives the full incremental pipeline
// — base matrix, then a train of gentle PATCH deltas — against a cold twin
// re-solving identical matrices, and pins the acceptance bar: every epoch's
// warm congestion within 1% of the cold re-solve.
func TestEngineWarmWithinOnePercentOfCold(t *testing.T) {
	warm, cold := warmPair(t)
	n := 16
	d := gridDemand(n, 3)
	mustSolve(t, warm, d)
	mustSolve(t, cold, d.Clone())

	rng := rand.New(rand.NewPCG(3, 0xc0ffee))
	support := d.Support()
	deltas := 0
	for i := 0; i < 16; i++ {
		p := support[rng.IntN(len(support))]
		amt := d.Get(p.U, p.V) * (1 + 0.03*(rng.Float64()-0.5))
		d.Set(p.U, p.V, amt)
		wout := mustPatch(t, warm, []PairAmount{{U: p.U, V: p.V, Amount: amt}}, nil)
		if wout.Warm == obs.WarmDelta {
			deltas++
			if wout.TouchedPairs != 1 {
				t.Fatalf("delta epoch touched %d pairs, want 1", wout.TouchedPairs)
			}
		}
		cout := mustSolve(t, cold, d.Clone())
		if cout.Congestion > 0 {
			gap := math.Abs(wout.Congestion-cout.Congestion) / cout.Congestion
			if gap > 0.01 {
				t.Fatalf("epoch %d: warm congestion %v vs cold %v (gap %.4f > 1%%)", i, wout.Congestion, cout.Congestion, gap)
			}
		}
	}
	if deltas == 0 {
		t.Fatal("no epoch took the delta fast path")
	}
}

// TestEngineWarmTagsAndStreak pins the incremental bookkeeping: delta epochs
// extend the streak and keep the anchor; the streak cap forces a cold
// re-solve that resets both.
func TestEngineWarmTagsAndStreak(t *testing.T) {
	g := gen.Grid(4, 4)
	router, err := oblivious.Build("raecke", g, &oblivious.BuildOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Graph: g, Router: router, R: 3, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mwuOnly(e)
	d := gridDemand(16, 5)
	out := mustSolve(t, e, d)
	if out.Warm != obs.WarmCold {
		t.Fatalf("first epoch tagged %q, want cold", out.Warm)
	}
	anchor := e.Active().Anchor
	p := d.Support()[0]
	for i := 1; i <= warmMaxStreak; i++ {
		amt := d.Get(p.U, p.V) * 1.01
		d.Set(p.U, p.V, amt)
		out = mustPatch(t, e, []PairAmount{{U: p.U, V: p.V, Amount: amt}}, nil)
		if out.Warm != obs.WarmDelta {
			t.Fatalf("epoch %d tagged %q, want delta", i+1, out.Warm)
		}
		st := e.Active()
		if st.Streak != i {
			t.Fatalf("epoch %d: streak %d, want %d", i+1, st.Streak, i)
		}
		if st.Anchor != anchor {
			t.Fatalf("epoch %d: incremental epoch replaced the drift anchor", i+1)
		}
	}
	// Streak cap reached: the next patch must solve cold and re-anchor.
	amt := d.Get(p.U, p.V) * 1.01
	d.Set(p.U, p.V, amt)
	out = mustPatch(t, e, []PairAmount{{U: p.U, V: p.V, Amount: amt}}, nil)
	if out.Warm != obs.WarmCold {
		t.Fatalf("epoch past the streak cap tagged %q, want cold", out.Warm)
	}
	st := e.Active()
	if st.Streak != 0 || st.Anchor == anchor {
		t.Fatalf("cold re-solve should reset streak and anchor: streak=%d", st.Streak)
	}
}

// TestEngineWarmColdFallbackAfterLinkEvent: a link event publishes an
// interim renormalized state (an emergency redistribution, not an optimum),
// and the full re-adapt that follows must solve cold rather than seed from
// it — only after that fresh optimum may the incremental chain resume.
func TestEngineWarmColdFallbackAfterLinkEvent(t *testing.T) {
	warm, _ := warmPair(t)
	ctx := context.Background()
	d := gridDemand(16, 7)
	mustSolve(t, warm, d) // epoch 1
	p := d.Support()[0]
	amt := d.Get(p.U, p.V) * 1.01
	d.Set(p.U, p.V, amt)
	out := mustPatch(t, warm, []PairAmount{{U: p.U, V: p.V, Amount: amt}}, nil) // epoch 2
	if out.Warm != obs.WarmDelta {
		t.Fatalf("pre-event patch tagged %q, want delta", out.Warm)
	}
	// The link event consumes two epochs: the interim renormalized publish
	// (3) and the enqueued full re-adapt (4).
	if _, err := warm.FailEdges(0); err != nil {
		t.Fatal(err)
	}
	interim, err := warm.Wait(ctx, 3)
	if err != nil || !interim.OK || !interim.Renormalized {
		t.Fatalf("interim epoch: err=%v out=%+v, want renormalized OK", err, interim)
	}
	readapt, err := warm.Wait(ctx, 4)
	if err != nil || !readapt.OK {
		t.Fatalf("re-adapt epoch: err=%v out=%+v", err, readapt)
	}
	if readapt.Warm != obs.WarmCold {
		t.Fatalf("re-adapt after link event tagged %q, want cold (must not seed from the emergency routing)", readapt.Warm)
	}
	st := warm.Active()
	if st.Renormalized || st.Streak != 0 {
		t.Fatalf("re-adapt should publish a fresh anchor state: %+v", st)
	}
	// With a fresh optimum at the new link version, deltas resume.
	amt = d.Get(p.U, p.V) * 1.01
	d.Set(p.U, p.V, amt)
	out = mustPatch(t, warm, []PairAmount{{U: p.U, V: p.V, Amount: amt}}, nil)
	if out.Warm != obs.WarmDelta {
		t.Fatalf("post-re-adapt patch tagged %q, want delta (chain resumes)", out.Warm)
	}
}

// TestEngineWarmDriftGuardForcesCold: a patch that swings the matrix past
// warmMaxDrift of the anchor must solve cold even though the delta machinery
// could run.
func TestEngineWarmDriftGuardForcesCold(t *testing.T) {
	warm, _ := warmPair(t)
	d := gridDemand(16, 9)
	mustSolve(t, warm, d)
	p := d.Support()[0]
	// 10x one pair: far beyond the 0.1 default drift budget on this matrix.
	amt := d.Get(p.U, p.V) + d.Size()
	out := mustPatch(t, warm, []PairAmount{{U: p.U, V: p.V, Amount: amt}}, nil)
	if out.Warm != obs.WarmCold {
		t.Fatalf("past-drift patch tagged %q, want cold", out.Warm)
	}
}

// TestPatchDemandValidation pins the PATCH contract: no base, empty patch,
// bad endpoints, and non-finite amounts are all rejected before anything is
// merged, and a rejected patch leaves the base matrix untouched.
func TestPatchDemandValidation(t *testing.T) {
	warm, _ := warmPair(t)
	if _, err := warm.patch([]PairAmount{{U: 0, V: 5, Amount: 1}}, nil); !errors.Is(err, errNoBaseDemand) {
		t.Fatalf("patch before base: %v, want errNoBaseDemand", err)
	}
	d := gridDemand(16, 11)
	mustSolve(t, warm, d)
	bad := []struct {
		name string
		set  []PairAmount
	}{
		{"self pair", []PairAmount{{U: 2, V: 2, Amount: 1}}},
		{"out of range", []PairAmount{{U: 0, V: 99, Amount: 1}}},
		{"zero amount", []PairAmount{{U: 0, V: 5, Amount: 0}}},
		{"negative amount", []PairAmount{{U: 0, V: 5, Amount: -2}}},
		{"NaN amount", []PairAmount{{U: 0, V: 5, Amount: math.NaN()}}},
		{"Inf amount", []PairAmount{{U: 0, V: 5, Amount: math.Inf(1)}}},
	}
	for _, tc := range bad {
		if _, err := warm.patch(tc.set, nil); err == nil {
			t.Fatalf("%s accepted", tc.name)
		}
	}
	if _, err := warm.patch(nil, nil); err == nil {
		t.Fatal("empty patch accepted")
	}
	var clears []PairRef
	for _, p := range d.Support() {
		clears = append(clears, PairRef{U: p.U, V: p.V})
	}
	if _, err := warm.patch(nil, clears); err == nil {
		t.Fatal("patch clearing the whole matrix accepted")
	}
}

// TestEngineDeltaChurn hammers the engine with concurrent PATCH traffic,
// routing reads, and link events — the race-tier exercise for the whole
// incremental pipeline. Correctness bar: no data race, and every published
// state routes its own demand matrix.
func TestEngineDeltaChurn(t *testing.T) {
	g := gen.Grid(4, 4)
	router, err := oblivious.Build("raecke", g, &oblivious.BuildOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Graph: g, Router: router, R: 3, Seed: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mwuOnly(e)
	d := gridDemand(16, 13)
	mustSolve(t, e, d)
	support := d.Support()

	var work, readers sync.WaitGroup
	stop := make(chan struct{})
	// Patch writer: gentle nudges.
	work.Add(1)
	go func() {
		defer work.Done()
		rng := rand.New(rand.NewPCG(13, 1))
		for i := 0; i < 60; i++ {
			p := support[rng.IntN(len(support))]
			amt := 0.5 + rng.Float64()
			epoch, err := e.patch([]PairAmount{{U: p.U, V: p.V, Amount: amt}}, nil)
			if err != nil {
				t.Errorf("patch: %v", err)
				return
			}
			if _, err := e.Wait(context.Background(), epoch); err != nil {
				t.Errorf("wait: %v", err)
				return
			}
		}
	}()
	// Routing readers.
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if st := e.Active(); st != nil {
					_ = st.Routing
					_ = st.Congestion
				}
			}
		}()
	}
	// Link flapper: fail/restore one edge repeatedly.
	work.Add(1)
	go func() {
		defer work.Done()
		for i := 0; i < 10; i++ {
			if _, err := e.FailEdges(1); err != nil {
				t.Errorf("fail: %v", err)
				return
			}
			if _, err := e.RestoreEdges(1); err != nil {
				t.Errorf("restore: %v", err)
				return
			}
		}
	}()
	work.Wait()
	close(stop)
	readers.Wait()
	st := e.Active()
	if st == nil || st.Routing == nil {
		t.Fatal("no active state after churn")
	}
	// The published routing must route its own matrix (the serving-system
	// view may be degraded mid-flap, so validate against the state's demand).
	if err := st.Routing.ValidateRoutes(g, st.Demand, 1e-5); err != nil {
		t.Fatalf("published routing does not route its matrix: %v", err)
	}
	// Every solved epoch made at most a delta and one cold attempt, its
	// retries counting the attempts past the first; only an interim publish
	// renormalizes.
	for _, tr := range e.Tracer().Traces(0) {
		stages := strings.Join(attemptStages(tr), " ")
		switch tr.Outcome {
		case obs.OutcomeRenormalized:
			if stages != "renormalize" {
				t.Fatalf("interim epoch %d attempts [%s], want [renormalize]", tr.Epoch, stages)
			}
		case obs.OutcomeSolved:
			if (stages != "adapt" && stages != "delta" && stages != "delta adapt") || tr.Retries != len(tr.Attempts)-1 {
				t.Fatalf("epoch %d attempts [%s] with %d retries", tr.Epoch, stages, tr.Retries)
			}
		default:
			t.Fatalf("epoch %d outcome %q, want solved or renormalized", tr.Epoch, tr.Outcome)
		}
	}
}
