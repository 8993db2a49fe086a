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
	if got := b.admitted(); got != 60 {
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

// TestEngineRateLimitSheds drives an engine with a one-per-minute quota: the
// first mutation lands, the second sheds with ErrRateLimited wrapped in a
// ShedError carrying a Retry-After hint, and nothing about the shed attempt
// reaches the WAL-visible operation stream (sequence unchanged).
func TestEngineRateLimitSheds(t *testing.T) {
	e := testEngine(t, Config{Seed: 1, MutationRate: 1.0 / 60, MutationBurst: 1})
	d := demand.New()
	d.Set(0, 7, 2)
	epoch, err := e.submit(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Wait(context.Background(), epoch); err != nil {
		t.Fatal(err)
	}
	_, err = e.submit(d)
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
	next, err := e.submit(d2)
	if err != nil {
		t.Fatal(err)
	}
	if next != epoch+1 {
		t.Fatalf("epoch %d after shed, want %d", next, epoch+1)
	}
}

// TestEngineAbandonedEpoch submits with a context that is already done: the
// engine refuses it before admission, with ctx.Err(), so no epoch is assigned,
// nothing is solved, and the previous routing stays serving.
func TestEngineAbandonedEpoch(t *testing.T) {
	e := testEngine(t, Config{Seed: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	good := demand.New()
	good.Set(0, 7, 2)
	epoch, err := e.submit(good)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Wait(ctx, epoch); err != nil {
		t.Fatal(err)
	}

	gone, abandon := context.WithCancel(context.Background())
	abandon() // the client is already gone when it submits
	received := e.Metrics().received.Value()
	next := good.Clone()
	next.Set(0, 7, 5)
	ep, err := e.SubmitDemandCtx(gone, next)
	if !errors.Is(err, context.Canceled) || ep != 0 {
		t.Fatalf("submit with a done context: epoch %d, err %v; want 0, context.Canceled", ep, err)
	}
	if got := e.Metrics().received.Value(); got != received {
		t.Fatalf("epochs_received=%d after the refusal, want %d", got, received)
	}
	if _, err := e.Wait(ctx, epoch+1); !errors.Is(err, errUnknownEpoch) {
		t.Fatalf("epoch %d after the refusal: %v, want errUnknownEpoch", epoch+1, err)
	}
	if st := e.Active(); st == nil || st.Epoch != epoch || st.Demand.Get(0, 7) != 2 {
		t.Fatalf("active %+v, want epoch %d still serving", st, epoch)
	}
}
