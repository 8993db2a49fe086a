package service

import (
	"context"
	"sync"
	"testing"
	"time"

	"sparseroute/internal/core"
	"sparseroute/internal/demand"
	"sparseroute/internal/flow"
	"sparseroute/internal/par"
)

// TestEnginesShareFairPoolWithoutStarvation is the fleet-fairness
// acceptance property at the engine level: two engines share one FairPool
// worker, engine A floods it with mutations behind a slow solve, and engine
// B's single epoch must still solve promptly — round-robin puts it right
// behind the solve in flight, never behind A's backlog. The execution order is
// recorded through the adapt seam, so the assertion is deterministic rather
// than timing-based.
func TestEnginesShareFairPoolWithoutStarvation(t *testing.T) {
	pool := par.NewFairPool(1)
	defer pool.Close()

	ea := testEngine(t, Config{Seed: 3, Pool: pool.Queue(1)})
	eb := testEngine(t, Config{Seed: 4, Pool: pool.Queue(1)})

	var mu sync.Mutex
	var order []string
	gate := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	record := func(tag string, wedge bool) adaptFunc {
		return func(ctx context.Context, ps *core.PathSystem, d *demand.Demand, opt *core.AdaptOptions) (flow.Routing, error) {
			if wedge {
				once.Do(func() { close(started) })
				<-gate // wedge the single shared worker on A's first solve
			}
			mu.Lock()
			order = append(order, tag)
			mu.Unlock()
			return ps.AdaptCtx(ctx, d, opt)
		}
	}
	ea.adapt = record("a", true)
	eb.adapt = record("b", false)

	d := demand.New()
	d.Set(0, 7, 1)

	// A's first epoch wedges the worker; its next five coalesce in its slot.
	if _, err := ea.SubmitDemand(d); err != nil {
		t.Fatal(err)
	}
	<-started
	for i := 0; i < 5; i++ {
		if _, err := ea.SubmitDemand(d); err != nil {
			t.Fatal(err)
		}
	}

	// B submits one epoch into the flood.
	bEpoch, err := eb.SubmitDemand(d)
	if err != nil {
		t.Fatal(err)
	}
	close(gate)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := eb.Wait(ctx, bEpoch)
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK {
		t.Fatalf("b's epoch did not solve: %+v", out)
	}

	mu.Lock()
	pos := -1
	for i, tag := range order {
		if tag == "b" {
			pos = i
			break
		}
	}
	snapshot := append([]string(nil), order...)
	mu.Unlock()
	// Order: A's wedged solve ran first; B must be next (the round-robin
	// cursor may owe A at most the solve already in flight).
	if pos < 0 || pos > 1 {
		t.Fatalf("b solved at position %d of %v — starved behind a's backlog", pos, snapshot)
	}
}

// TestEngineOnSharedPoolCloseDrainsOwnQueueOnly: closing one engine on a
// shared pool must not tear down its sibling's worker supply.
func TestEngineOnSharedPoolCloseDrainsOwnQueueOnly(t *testing.T) {
	pool := par.NewFairPool(2)
	defer pool.Close()

	ea := testEngine(t, Config{Seed: 5, Pool: pool.Queue(1)})
	eb := testEngine(t, Config{Seed: 6, Pool: pool.Queue(1)})

	d := demand.New()
	d.Set(0, 7, 1)
	ea.Close()
	if _, err := ea.SubmitDemand(d); err == nil {
		t.Fatal("closed engine accepted a demand")
	}

	// The sibling still solves on the shared workers.
	epoch, err := eb.SubmitDemand(d)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := eb.Wait(ctx, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK {
		t.Fatalf("sibling epoch failed after other engine closed: %+v", out)
	}
}
