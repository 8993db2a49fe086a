package service

import (
	"context"
	"errors"
	"slices"
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
// worker, engine A floods it with six mutations behind a slow solve, and
// engine B's single epoch must still solve promptly — round-robin puts it
// right behind the solve in flight, never behind A's backlog. The execution
// order is recorded through the adapt seam, so the assertion is
// deterministic rather than timing-based.
//
// The poisoned case shows a failing solver needs no guard of its own: A's
// solver fails every call, yet its flood costs the shared worker at most two
// solves (the one in flight and the one its mailbox coalesced the rest
// into), each making one solver call, every epoch falls back to A's last
// good routing, and B still solves right after A's in-flight epoch.
func TestEnginesShareFairPoolWithoutStarvation(t *testing.T) {
	cases := []struct {
		name     string
		poisoned bool
	}{
		{"healthy flood", false},
		{"poisoned sibling", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pool := par.NewFairPool(1)
			defer pool.Close()

			ea := testEngine(t, Config{Seed: 3, Pool: pool.Queue(1)})
			eb := testEngine(t, Config{Seed: 4, Pool: pool.Queue(1)})

			d := demand.New()
			d.Set(0, 7, 1)
			if tc.poisoned {
				mustSolve(t, ea, d) // A's last good routing
			}
			floodFrom := ea.Metrics().received.Value() + 1

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
					if tc.poisoned && tag == "a" {
						return nil, errors.New("poisoned solver")
					}
					return ps.AdaptCtx(ctx, d, opt)
				}
			}
			ea.adapt = record("a", true)
			eb.adapt = record("b", false)

			// A's first epoch wedges the worker; its next five coalesce in
			// its slot.
			if _, err := ea.submit(d); err != nil {
				t.Fatal(err)
			}
			<-started
			for i := 0; i < 5; i++ {
				if _, err := ea.submit(d); err != nil {
					t.Fatal(err)
				}
			}

			// B submits one epoch into the flood.
			bEpoch, err := eb.submit(d)
			if err != nil {
				t.Fatal(err)
			}
			close(gate)

			out, err := eb.Wait(waitCtx(t), bEpoch)
			if err != nil {
				t.Fatal(err)
			}
			if !out.OK {
				t.Fatalf("b's epoch did not solve: %+v", out)
			}
			outs := quiesce(t, ea)

			mu.Lock()
			pos := slices.Index(order, "b")
			snapshot := slices.Clone(order)
			mu.Unlock()
			// Order: A's wedged epoch ran first; B must be next (the
			// round-robin cursor may owe A at most the epoch already in
			// flight).
			if pos < 0 || pos > 1 {
				t.Fatalf("b solved at position %d of %v — starved behind a's backlog", pos, snapshot)
			}
			if !tc.poisoned {
				return
			}
			m := ea.Metrics()
			solves := m.received.Value() - m.superseded.Value() - (floodFrom - 1)
			if solves > 2 {
				t.Fatalf("a's six mutations ran %d solves, want at most 2", solves)
			}
			if calls := int64(len(snapshot) - 1); calls != solves {
				t.Fatalf("a's %d solves made %d solver calls (%v), want one each", solves, calls, snapshot)
			}
			for epoch := uint64(floodFrom); epoch < uint64(floodFrom)+6; epoch++ {
				if out := outs[epoch]; !out.Fallback || out.OK {
					t.Fatalf("a's epoch %d: %+v, want a fallback", epoch, out)
				}
			}
			servesLatest(t, ea)
		})
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
	if _, err := ea.submit(d); err == nil {
		t.Fatal("closed engine accepted a demand")
	}

	// The sibling still solves on the shared workers.
	epoch, err := eb.submit(d)
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
