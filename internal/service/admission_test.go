package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"sparseroute/internal/demand"
)

func TestRateLimiterBurstAndRefill(t *testing.T) {
	l := newRateLimiter(1000, 2)
	for i := 0; i < 2; i++ {
		if ok, _ := l.allow(); !ok {
			t.Fatalf("token %d of the burst refused", i)
		}
	}
	ok, wait := l.allow()
	if ok {
		t.Fatal("third token granted from a burst-2 bucket")
	}
	if wait < time.Second {
		t.Fatalf("Retry-After hint %v below the 1s floor", wait)
	}
	// At 1000 tokens/sec the bucket refills almost immediately.
	deadline := time.Now().Add(time.Second)
	for {
		if ok, _ := l.allow(); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("bucket never refilled")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRateLimiterDisabledAndMinimumBurst(t *testing.T) {
	var nilLimiter *rateLimiter
	if ok, _ := nilLimiter.allow(); !ok {
		t.Fatal("nil limiter must admit")
	}
	if ok, _ := newRateLimiter(0, 5).allow(); !ok {
		t.Fatal("rate 0 must disable the limiter")
	}
	l := newRateLimiter(1, 0) // burst raised to 1
	if ok, _ := l.allow(); !ok {
		t.Fatal("burst-0 bucket must still hold one token")
	}
}

func TestByteBudgetAcquireRelease(t *testing.T) {
	b := &byteBudget{max: 100}
	if !b.acquire(60) {
		t.Fatal("60 of 100 refused")
	}
	if b.acquire(60) {
		t.Fatal("second 60 admitted past the 100 budget")
	}
	b.release(60)
	if !b.acquire(60) {
		t.Fatal("60 refused after release")
	}
	if got := b.Inflight(); got != 60 {
		t.Fatalf("inflight=%d, want 60", got)
	}
}

func TestByteBudgetOversizedSingleRequest(t *testing.T) {
	// A body above the whole budget is admitted when nothing else is in
	// flight: the per-request ceiling belongs to MaxBodyBytes.
	b := &byteBudget{max: 100}
	if !b.acquire(500) {
		t.Fatal("oversized request refused on an idle budget")
	}
	if b.acquire(1) {
		t.Fatal("admission while the oversized body drains")
	}
	b.release(500)
	if !b.acquire(1) {
		t.Fatal("budget did not recover")
	}
}

func TestBreakerStateMachine(t *testing.T) {
	var transitions []string
	b := &breaker{threshold: 3, cooldown: 50 * time.Millisecond,
		transition: func(from, to, reason string) { transitions = append(transitions, from+">"+to) }}
	if !b.enabled() {
		t.Fatal("threshold 3 should enable the breaker")
	}
	b.onFailure()
	b.onFailure()
	if ok, _ := b.allow(); !ok {
		t.Fatal("closed breaker refused below the threshold")
	}
	b.onSuccess() // resets the streak
	b.onFailure()
	b.onFailure()
	b.onFailure()
	if b.snapshot() != breakerOpen {
		t.Fatalf("state %s after 3 consecutive failures, want open", b.stateName())
	}
	if ok, wait := b.allow(); ok || wait <= 0 {
		t.Fatalf("open breaker admitted (wait %v)", wait)
	}

	// After the cooldown exactly one probe gets through.
	time.Sleep(60 * time.Millisecond)
	if ok, _ := b.allow(); !ok {
		t.Fatal("cooldown elapsed but the probe was refused")
	}
	if b.snapshot() != breakerHalfOpen {
		t.Fatalf("state %s during the probe, want half-open", b.stateName())
	}
	if ok, _ := b.allow(); ok {
		t.Fatal("second concurrent probe admitted")
	}

	// A failed probe re-opens; a later successful probe closes.
	b.onFailure()
	if b.snapshot() != breakerOpen {
		t.Fatalf("state %s after a failed probe, want open", b.stateName())
	}
	time.Sleep(60 * time.Millisecond)
	if ok, _ := b.allow(); !ok {
		t.Fatal("second probe refused")
	}
	b.onSuccess()
	if b.snapshot() != breakerClosed {
		t.Fatalf("state %s after a successful probe, want closed", b.stateName())
	}
	want := []string{"closed>open", "open>half-open", "half-open>open", "open>half-open", "half-open>closed"}
	if len(transitions) != len(want) {
		t.Fatalf("transitions %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions %v, want %v", transitions, want)
		}
	}
}

func TestBreakerNeutralReleasesProbe(t *testing.T) {
	b := &breaker{threshold: 1, cooldown: 10 * time.Millisecond}
	b.onFailure()
	time.Sleep(20 * time.Millisecond)
	if ok, _ := b.allow(); !ok {
		t.Fatal("probe refused after cooldown")
	}
	// The probe's epoch was abandoned — neither success nor failure. The
	// probe slot must free up or the breaker wedges half-open forever.
	b.onNeutral()
	if ok, _ := b.allow(); !ok {
		t.Fatal("probe slot not released by a neutral outcome")
	}
}

func TestBreakerDisabled(t *testing.T) {
	b := &breaker{}
	for i := 0; i < 10; i++ {
		b.onFailure()
	}
	if ok, _ := b.allow(); !ok {
		t.Fatal("disabled breaker refused")
	}
	if b.stateName() != "" {
		t.Fatalf("disabled breaker reports state %q", b.stateName())
	}
}

// TestEngineRateLimitSheds drives an engine with a one-per-minute quota: the
// first mutation lands, the second sheds with ErrRateLimited wrapped in a
// ShedError carrying a Retry-After hint, and nothing about the shed attempt
// reaches the WAL-visible operation stream (sequence unchanged).
func TestEngineRateLimitSheds(t *testing.T) {
	e := testEngine(t, Config{Seed: 1, MutationRate: 1.0 / 60, MutationBurst: 1})
	d := demand.New()
	d.Set(0, 7, 2)
	epoch, err := e.SubmitDemand(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Wait(context.Background(), epoch); err != nil {
		t.Fatal(err)
	}
	_, err = e.SubmitDemand(d)
	var shed *ShedError
	if !errors.As(err, &shed) || !errors.Is(err, ErrRateLimited) {
		t.Fatalf("err %v, want ShedError{ErrRateLimited}", err)
	}
	if shed.After < time.Second {
		t.Fatalf("Retry-After hint %v below the floor", shed.After)
	}
	if got := e.Metrics().rateLimited.Value(); got != 1 {
		t.Fatalf("rate_limited=%d, want 1", got)
	}
	if got := e.Metrics().shedRequests.Value(); got != 1 {
		t.Fatalf("shed_requests=%d, want 1", got)
	}
	// The shed mutation also never consumed an epoch.
	d2 := demand.New()
	d2.Set(1, 6, 1)
	e.limiter.tokens = 1 // hand the bucket a token rather than waiting a minute
	next, err := e.SubmitDemand(d2)
	if err != nil {
		t.Fatal(err)
	}
	if next != epoch+1 {
		t.Fatalf("epoch %d after shed, want %d", next, epoch+1)
	}
}

// TestEngineBreakerOpensAndRecovers poisons the solver with an impossible
// deadline until the breaker opens, verifies reads still serve
// last-known-good and mutations shed with 503-class errors, then lifts the
// poison and watches the half-open probe close the breaker.
func TestEngineBreakerOpensAndRecovers(t *testing.T) {
	e := testEngine(t, Config{
		Seed:             1,
		BreakerThreshold: 3,
		BreakerCooldown:  50 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// A healthy first epoch is the last-known-good the breaker protects.
	good := demand.New()
	good.Set(0, 7, 2)
	epoch, err := e.SubmitDemand(good)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := e.Wait(ctx, epoch); err != nil || !out.OK {
		t.Fatalf("seed epoch: %v %+v", err, out)
	}

	// Poison the solver: a nanosecond deadline fails every solve. The write
	// is ordered before the next submit's channel send, so the worker
	// observes it.
	e.cfg.SolveDeadline = time.Nanosecond
	for i := 0; i < 3; i++ {
		ep, err := e.SubmitDemand(good)
		if err != nil {
			t.Fatalf("submit %d while breaker closed: %v", i, err)
		}
		out, err := e.Wait(ctx, ep)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Fallback {
			t.Fatalf("poisoned solve %d did not fall back: %+v", i, out)
		}
	}
	if e.breaker.snapshot() != breakerOpen {
		t.Fatalf("breaker %s after %d failed solves, want open", e.breaker.stateName(), 3)
	}
	if got := e.Metrics().breakerOpens.Value(); got != 1 {
		t.Fatalf("breaker_opens=%d, want 1", got)
	}

	// Open breaker: mutations shed as a 503-class ShedError, reads keep
	// serving the last good routing.
	_, err = e.SubmitDemand(good)
	var shed *ShedError
	if !errors.As(err, &shed) || !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("submit under open breaker: %v, want ShedError{ErrBreakerOpen}", err)
	}
	if st := e.Active(); st == nil || st.Epoch != epoch {
		t.Fatalf("active state %+v, want last-known-good epoch %d", st, epoch)
	}
	if h := e.Health(); h.Breaker != "open" {
		t.Fatalf("health breaker %q, want open", h.Breaker)
	}

	// Lift the poison; after the cooldown the next mutation is the half-open
	// probe, and its success closes the breaker.
	e.cfg.SolveDeadline = 0
	var probe uint64
	for {
		probe, err = e.SubmitDemand(good)
		if err == nil {
			break
		}
		if !errors.As(err, &shed) {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
		if ctx.Err() != nil {
			t.Fatal("breaker never admitted the probe")
		}
	}
	if out, err := e.Wait(ctx, probe); err != nil || !out.OK {
		t.Fatalf("probe epoch: %v %+v", err, out)
	}
	if e.breaker.snapshot() != breakerClosed {
		t.Fatalf("breaker %s after a good probe, want closed", e.breaker.stateName())
	}
	if h := e.Health(); h.Breaker != "closed" {
		t.Fatalf("health breaker %q, want closed", h.Breaker)
	}
}

// TestEngineAbandonedEpoch submits with an already-expired abandon context:
// the worker must skip the solve, count the abandonment, and leave the
// previous routing serving.
func TestEngineAbandonedEpoch(t *testing.T) {
	e := testEngine(t, Config{Seed: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	good := demand.New()
	good.Set(0, 7, 2)
	epoch, err := e.SubmitDemand(good)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Wait(ctx, epoch); err != nil {
		t.Fatal(err)
	}

	gone, abandon := context.WithCancel(context.Background())
	abandon() // the client is already gone when the worker picks this up
	ep, err := e.SubmitDemandCtx(gone, good)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Wait(ctx, ep)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Fallback {
		t.Fatalf("abandoned epoch solved anyway: %+v", out)
	}
	if got := e.Metrics().epochsAbandoned.Value(); got != 1 {
		t.Fatalf("epochs_abandoned=%d, want 1", got)
	}
	if st := e.Active(); st == nil || st.Epoch != epoch {
		t.Fatalf("active %+v, want epoch %d still serving", st, epoch)
	}
}

// TestBreakerProbeReleasedOnRejectedMutation: a half-open breaker admits one
// probe mutation; if that mutation is then refused before it is enqueued —
// whatever the refusal — the probe slot must come back, or every later
// mutation sheds with ErrBreakerOpen until a link event happens to arrive.
// Each case trips the breaker, waits out the cooldown, burns the probe on a
// mutation the engine rejects, and then requires a valid submit to be
// admitted as the next probe and to close the breaker.
func TestBreakerProbeReleasedOnRejectedMutation(t *testing.T) {
	cases := []struct {
		name   string
		reject func(e *Engine) error
	}{
		{"patch clears the whole matrix", func(e *Engine) error {
			_, err := e.PatchDemand(nil, []PairRef{{U: 0, V: 7}})
			return err
		}},
		{"patch onto a pair with no candidates", func(e *Engine) error {
			_, err := e.PatchDemand([]PairAmount{{U: 1, V: 6, Amount: 1}}, nil)
			return err
		}},
		{"invalid patch", func(e *Engine) error {
			_, err := e.PatchDemand([]PairAmount{{U: 0, V: 99, Amount: 1}}, nil)
			return err
		}},
		{"rate limited", func(e *Engine) error {
			e.limiter = newRateLimiter(1.0/60, 1)
			e.limiter.allow() // drain the bucket
			_, err := e.PatchDemand([]PairAmount{{U: 0, V: 7, Amount: 3}}, nil)
			e.limiter = nil
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Only (0,7) is installed, so a patch onto (1,6) is valid but
			// uncovered.
			e := testEngine(t, Config{
				Seed:             1,
				Pairs:            []demand.Pair{{U: 0, V: 7}},
				BreakerThreshold: 1,
				BreakerCooldown:  20 * time.Millisecond,
			})
			if out := solveOne(t, e, 0, 7, 2); !out.OK {
				t.Fatalf("prime epoch: %+v", out)
			}
			e.cfg.SolveDeadline = time.Nanosecond
			if out := solveOne(t, e, 0, 7, 2); !out.Fallback {
				t.Fatalf("poisoned epoch did not fall back: %+v", out)
			}
			if e.breaker.snapshot() != breakerOpen {
				t.Fatalf("breaker %s after a failed solve at threshold 1, want open", e.breaker.stateName())
			}
			e.cfg.SolveDeadline = 0
			time.Sleep(30 * time.Millisecond)

			if err := tc.reject(e); err == nil || errors.Is(err, ErrBreakerOpen) {
				t.Fatalf("probe mutation: err %v, want a rejection other than the breaker's", err)
			}
			out := solveOne(t, e, 0, 7, 2)
			if !out.OK {
				t.Fatalf("probe epoch: %+v", out)
			}
			if e.breaker.snapshot() != breakerClosed {
				t.Fatalf("breaker %s after a good probe, want closed", e.breaker.stateName())
			}
		})
	}
}
