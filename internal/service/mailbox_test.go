package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sparseroute/internal/core"
	"sparseroute/internal/demand"
	"sparseroute/internal/flow"
	"sparseroute/internal/wal"
)

// holdSolves swaps e's adapt seam for one that parks every solve reaching it
// until release is called: entered receives once per parked solve. Delta
// epochs do not pass the seam. Call it while e is idle.
func holdSolves(e *Engine) (entered <-chan struct{}, release func()) {
	in := make(chan struct{}, 256) // above the solves any test parks, so the seam never blocks on it
	gate := make(chan struct{})
	e.adapt = func(ctx context.Context, ps *core.PathSystem, d *demand.Demand, opt *core.AdaptOptions) (flow.Routing, error) {
		in <- struct{}{}
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return ps.AdaptCtx(ctx, d, opt)
	}
	var once sync.Once
	return in, func() { once.Do(func() { close(gate) }) }
}

// quiesce waits on every epoch the engine has assigned so far, failing the
// test on any that does not resolve, and returns their outcomes by epoch.
// Once it returns, no solve or publish is left in flight.
func quiesce(t *testing.T, e *Engine) map[uint64]*Outcome {
	t.Helper()
	e.mu.Lock()
	last := e.nextEpoch
	e.mu.Unlock()
	ctx := waitCtx(t)
	outs := make(map[uint64]*Outcome, last)
	for epoch := uint64(1); epoch <= last; epoch++ {
		out, err := e.Wait(ctx, epoch)
		if err != nil {
			t.Fatalf("epoch %d of %d did not resolve: %v", epoch, last, err)
		}
		outs[epoch] = out
	}
	return outs
}

// servesLatest asserts the published state routes exactly the latest
// accepted matrix restricted to the pairs the serving system covers, only
// over live edges.
func servesLatest(t *testing.T, e *Engine) {
	t.Helper()
	st := e.Active()
	if st == nil {
		t.Fatal("nothing published")
	}
	sys := e.System()
	want := e.LastSubmitted().Restrict(func(p demand.Pair) bool {
		return len(sys.Unique(p.U, p.V)) > 0
	})
	if !demand.Equal(st.Demand, want, 1e-12) {
		t.Fatalf("epoch %d serves %v, want the latest accepted matrix %v", st.Epoch, st.Demand, want)
	}
	if err := st.Routing.ValidateRoutes(e.cfg.Graph, want, 1e-6); err != nil {
		t.Fatalf("epoch %d routing: %v", st.Epoch, err)
	}
	failed := make(map[int]bool)
	for _, id := range linksOf(e).FailedEdges {
		failed[id] = true
	}
	routingAvoids(t, st.Routing, failed)
}

// TestLinkEventServesLatestAcceptedDemand: a demand accepted while an earlier
// solve runs must survive a link event that lands before it is solved — the
// re-adapt after the event solves the latest accepted matrix, not the one
// that happened to be published.
func TestLinkEventServesLatestAcceptedDemand(t *testing.T) {
	e := testEngine(t, Config{Seed: 1})
	d1 := demand.New()
	d1.Set(0, 7, 2)
	mustSolve(t, e, d1)

	entered, release := holdSolves(e)
	defer release()
	running := d1.Clone()
	running.Set(0, 7, 3) // far enough from d1 to solve cold, through the seam
	if _, err := e.submit(running); err != nil {
		t.Fatal(err)
	}
	<-entered
	d2 := running.Clone()
	d2.Set(1, 6, 3)
	epoch2, err := e.submit(d2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.FailEdges(0); err != nil {
		t.Fatal(err)
	}
	if len(e.System().Unique(1, 6)) == 0 {
		t.Fatal("test topology lost pair (1,6) to the failure; pick another edge")
	}
	release()
	outs := quiesce(t, e)

	if !outs[epoch2].OK {
		t.Fatalf("d2's epoch %d: %+v", epoch2, outs[epoch2])
	}
	if got := e.Active().Demand.Get(1, 6); got != 3 {
		t.Fatalf("served demand %v lost d2's pair (1,6) although its epoch reported ok", e.Active().Demand)
	}
	servesLatest(t, e)
}

// TestLinkEventReadaptNeverDropped: however many mutations pile up behind a
// running solve, a link event's re-adapt still runs, so the emergency
// renormalized routing never stays in service.
func TestLinkEventReadaptNeverDropped(t *testing.T) {
	e := testEngine(t, Config{Seed: 1})
	d := demand.New()
	d.Set(0, 7, 2)
	d.Set(1, 6, 1)
	mustSolve(t, e, d)

	entered, release := holdSolves(e)
	defer release()
	d.Set(0, 7, 3)
	if _, err := e.submit(d); err != nil {
		t.Fatal(err)
	}
	<-entered
	for i := 0; i < 16; i++ {
		d.Set(1, 6, 1+float64(i))
		if _, err := e.submit(d); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.FailEdges(0); err != nil {
		t.Fatal(err)
	}
	release()
	quiesce(t, e)

	if st := e.Active(); st.Renormalized {
		t.Fatalf("epoch %d: the interim renormalized routing is still serving", st.Epoch)
	}
	servesLatest(t, e)
}

// TestAcceptedDemandIsAlwaysServed: a mutation the engine accepted — logged,
// and acknowledged with an epoch — is solved whatever happens to its
// client's context afterwards, so the live engine serves what a replay of the
// same log serves. A context that is already done is refused before
// admission: nothing is logged and no epoch is assigned.
func TestAcceptedDemandIsAlwaysServed(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "accepted.wal")
	cfg := Config{Seed: 1}
	e, log, _ := walEngine(t, walPath, cfg)
	entered, release := holdSolves(e)
	defer release()
	d1 := demand.New()
	d1.Set(0, 7, 2)
	if _, err := e.submit(d1); err != nil {
		t.Fatal(err)
	}
	<-entered // d1's solve holds the solver, so d2 waits in the slot
	d2 := d1.Clone()
	d2.Set(1, 6, 1)
	ctx, cancel := context.WithCancel(context.Background())
	epoch2, err := e.SubmitDemandCtx(ctx, d2)
	cancel() // the client goes away right after its mutation was accepted
	if err != nil {
		t.Fatal(err)
	}
	release()
	outs := quiesce(t, e)

	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	records, _ := wal.Scan(raw)
	if len(records) != 2 {
		t.Fatalf("log holds %d records, want the two accepted submits", len(records))
	}
	replayed, _, err := replayRecords(t, cfg, string(records[0]), string(records[1]))
	if err != nil {
		t.Fatal(err)
	}
	quiesce(t, replayed)
	if live, rep := e.Active().Demand, replayed.Active().Demand; !demand.Equal(live, rep, 1e-12) {
		t.Fatalf("live serves %v, replay of its log serves %v", live, rep)
	}
	if live, rep := e.LastSubmitted(), replayed.LastSubmitted(); !demand.Equal(live, rep, 1e-12) {
		t.Fatalf("live base matrix %v, replayed %v", live, rep)
	}
	if e.Hash() != replayed.Hash() {
		t.Fatalf("live hash %016x, replayed %016x", e.Hash(), replayed.Hash())
	}
	if out := outs[epoch2]; !out.OK || out.Epoch != epoch2 {
		t.Fatalf("accepted epoch %d: %+v, want it solved", epoch2, out)
	}
	servesLatest(t, e)

	received, logged := e.Metrics().received.Value(), log.Records()
	_, err = e.SubmitDemandCtx(ctx, d1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("submit with a done context: %v, want context.Canceled", err)
	}
	_, err = e.PatchDemandCtx(ctx, []PairAmount{{U: 2, V: 5, Amount: 1}}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("patch with a done context: %v, want context.Canceled", err)
	}
	if got := log.Records(); got != logged {
		t.Fatalf("refused mutations logged: %d records, want %d", got, logged)
	}
	if got := e.Metrics().received.Value(); got != received {
		t.Fatalf("refused mutations took epochs: epochs_received %d, want %d", got, received)
	}
	if _, err := e.Wait(waitCtx(t), epoch2+1); !errors.Is(err, errUnknownEpoch) {
		t.Fatalf("epoch %d after the refusals: %v, want errUnknownEpoch", epoch2+1, err)
	}
}

// TestAbandonedSubmitKeepsCoveredWork: a submit whose client is already gone
// is refused before admission, and the refusal disturbs none of the work
// already accepted. Behind a running solve, a background submit and a pending
// link re-adapt are still solved: the latest accepted matrix serves and the
// interim renormalized routing does not stay. A live client's submit followed
// by a gone client's is solved the same way, without the gone one's matrix.
func TestAbandonedSubmitKeepsCoveredWork(t *testing.T) {
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	live, cancelLive := context.WithCancel(context.Background())
	defer cancelLive()

	e := testEngine(t, Config{Seed: 1})
	d := demand.New()
	d.Set(0, 7, 2)
	mustSolve(t, e, d)
	entered, release := holdSolves(e)
	defer release()
	d.Set(0, 7, 3)
	if _, err := e.submit(d); err != nil {
		t.Fatal(err)
	}
	<-entered
	d.Set(1, 6, 1)
	background, err := e.submit(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.FailEdges(0); err != nil {
		t.Fatal(err)
	}
	d.Set(1, 6, 2)
	if _, err := e.SubmitDemandCtx(gone, d); !errors.Is(err, context.Canceled) {
		t.Fatalf("submit with a done context: %v, want context.Canceled", err)
	}
	release()
	outs := quiesce(t, e)
	if out := outs[background]; !out.OK {
		t.Fatalf("background epoch %d was not solved: %+v", background, out)
	}
	if st := e.Active(); st.Renormalized {
		t.Fatalf("epoch %d: the interim renormalized routing is still serving", st.Epoch)
	}
	if got := e.LastSubmitted().Get(1, 6); got != 1 {
		t.Fatalf("latest accepted (1,6)=%v, want 1: the refused submit leaked in", got)
	}
	servesLatest(t, e)

	e = testEngine(t, Config{Seed: 1})
	entered, release = holdSolves(e)
	defer release()
	if _, err := e.submit(d); err != nil {
		t.Fatal(err)
	}
	<-entered
	d.Set(2, 5, 1)
	covered, err := e.SubmitDemandCtx(live, d)
	if err != nil {
		t.Fatal(err)
	}
	d.Set(2, 5, 2)
	if _, err := e.SubmitDemandCtx(gone, d); !errors.Is(err, context.Canceled) {
		t.Fatalf("submit with a done context: %v, want context.Canceled", err)
	}
	release()
	if out := quiesce(t, e)[covered]; !out.OK {
		t.Fatalf("live client's epoch %d was not solved: %+v", covered, out)
	}
	if got := e.LastSubmitted().Get(2, 5); got != 1 {
		t.Fatalf("latest accepted (2,5)=%v, want 1: the refused submit leaked in", got)
	}
	servesLatest(t, e)
}

// TestEngineCoalescesWhenSaturated: mutations arriving faster than the solver
// are all accepted; each one still waiting when a newer one arrives is
// superseded instead of solved, and its Wait reports the covering epoch's
// outcome.
func TestEngineCoalescesWhenSaturated(t *testing.T) {
	e := testEngine(t, Config{Seed: 1})
	entered, release := holdSolves(e)
	defer release()
	d := demand.New()
	d.Set(0, 7, 1)
	if _, err := e.submit(d); err != nil {
		t.Fatal(err)
	}
	<-entered
	const burst = 20
	var last uint64
	for i := 0; i < burst; i++ {
		d.Set(1, 6, 1+float64(i))
		epoch, err := e.submit(d)
		if err != nil {
			t.Fatalf("submit %d under saturation: %v", i, err)
		}
		last = epoch
	}
	release()
	outs := quiesce(t, e)

	m := e.Metrics()
	if got := m.superseded.Value(); got != burst-1 {
		t.Fatalf("epochs_superseded=%d, want %d", got, burst-1)
	}
	if got := m.solved.Value(); got != 2 {
		t.Fatalf("epochs_solved=%d, want 2 (the running solve and the latest demand)", got)
	}
	for epoch := last - burst + 1; epoch <= last; epoch++ {
		if out := outs[epoch]; out.Epoch != last || !out.OK {
			t.Fatalf("epoch %d resolved to %+v, want epoch %d's solve", epoch, out, last)
		}
	}
	servesLatest(t, e)
}

// TestServerWaitOnSupersededEpoch: ?wait=1 on an epoch superseded before it
// solved answers 200 with the covering epoch's outcome.
func TestServerWaitOnSupersededEpoch(t *testing.T) {
	_, e, ts := testServer(t, Config{Seed: 1}, "")
	entered, release := holdSolves(e)
	defer release()
	if code, _ := postJSON(t, ts.URL+"/v1/demand", `{"entries":[{"u":0,"v":7,"amount":1}]}`); code != http.StatusAccepted {
		t.Fatalf("first submit status %d", code)
	}
	<-entered

	type reply struct {
		code int
		body demandResponse
		err  error
	}
	waited := make(chan reply, 1)
	go func() {
		var r reply
		resp, err := http.Post(ts.URL+"/v1/demand?wait=1", "application/json",
			strings.NewReader(`{"entries":[{"u":1,"v":6,"amount":1}]}`))
		if err != nil {
			r.err = err
		} else {
			r.code = resp.StatusCode
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			r.err = json.Unmarshal(raw, &r.body)
		}
		waited <- r
	}()
	// The waiting submit is epoch 2; supersede it once it is in the slot.
	for {
		e.mu.Lock()
		n := e.nextEpoch
		e.mu.Unlock()
		if n == 2 {
			break
		}
		select {
		case r := <-waited:
			t.Fatalf("waiting submit answered before it was superseded: %+v", r)
		case <-time.After(time.Millisecond):
		}
	}
	code, body := postJSON(t, ts.URL+"/v1/demand", `{"entries":[{"u":2,"v":5,"amount":1}]}`)
	if code != http.StatusAccepted || body["epoch"] != float64(3) {
		t.Fatalf("superseding submit: status %d body %v", code, body)
	}
	release()

	r := <-waited
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.code != http.StatusOK || r.body.Epoch != 3 || !r.body.Solved {
		t.Fatalf("?wait=1 on the superseded epoch: status %d body %+v, want 200 with epoch 3's solve", r.code, r.body)
	}
}

// TestEpochCounterModel drives a seeded sequence of non-waiting submits,
// patches, link failures and restores against an engine whose solves park
// until the sequence lets them through, so requests really coalesce in the
// slot. After quiescence the engine must satisfy the serving model:
//
//   - every epoch is accounted for once:
//     received = solved + superseded + fallbacks;
//   - every assigned epoch resolves through Wait, and exactly the superseded
//     ones resolve to a later epoch's outcome;
//   - the published routing serves the latest accepted matrix restricted to
//     covered pairs, routes it exactly, and avoids every failed edge;
//   - replaying the log reproduces the matrix, link state and hash.
func TestEpochCounterModel(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		walPath := filepath.Join(t.TempDir(), "model.wal")
		cfg := Config{Seed: 5, OutcomeHistory: 4096}
		e, log, _ := walEngine(t, walPath, cfg)
		tokens := make(chan struct{}, 1024) // above the 80 ops that can release one, so releasing never blocks
		e.adapt = func(ctx context.Context, ps *core.PathSystem, d *demand.Demand, opt *core.AdaptOptions) (flow.Routing, error) {
			select {
			case <-tokens:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return ps.AdaptCtx(ctx, d, opt)
		}

		rng := rand.New(rand.NewPCG(seed, 0x5107))
		n, m := e.cfg.Graph.NumVertices(), e.cfg.Graph.NumEdges()
		pair := func() (int, int) {
			u := rng.IntN(n)
			return u, (u + 1 + rng.IntN(n-1)) % n
		}
		gone, cancelGone := context.WithCancel(context.Background())
		cancelGone()
		var failed []int
		for i := 0; i < 80; i++ {
			var err error
			switch k := rng.IntN(10); {
			case k < 3:
				d := demand.New()
				for j := 0; j < 1+rng.IntN(4); j++ {
					u, v := pair()
					d.Set(u, v, 1+float64(rng.IntN(4)))
				}
				ctx := context.Background()
				if k == 0 && rng.IntN(3) == 0 {
					ctx = gone // refused before admission
				}
				_, err = e.SubmitDemandCtx(ctx, d)
				if ctx == gone && errors.Is(err, context.Canceled) {
					err = nil
				}
			case k < 6:
				u, v := pair()
				_, err = e.patch([]PairAmount{{U: u, V: v, Amount: 0.5 + rng.Float64()}}, nil)
				if errors.Is(err, errNoBaseDemand) {
					err = nil
				}
			case k < 7 && len(failed) < 2:
				id := rng.IntN(m)
				failed = append(failed, id)
				_, err = e.FailEdges(id)
			case k < 8 && len(failed) > 0:
				j := rng.IntN(len(failed))
				_, err = e.RestoreEdges(failed[j])
				failed = append(failed[:j], failed[j+1:]...)
			default:
				tokens <- struct{}{} // let one parked solve through
			}
			if err != nil {
				t.Fatalf("seed %d op %d: %v", seed, i, err)
			}
		}
		// Close the sequence with the latest matrix itself, then let every
		// solve through.
		if final := e.LastSubmitted(); final != nil {
			if _, err := e.submit(final); err != nil {
				t.Fatal(err)
			}
		}
		close(tokens)
		outs := quiesce(t, e)

		met := e.Metrics()
		received, solved := met.received.Value(), met.solved.Value()
		superseded, fallbacks := met.superseded.Value(), met.fallbacks.Value()
		if received != solved+superseded+fallbacks {
			t.Fatalf("seed %d: received %d != solved %d + superseded %d + fallbacks %d",
				seed, received, solved, superseded, fallbacks)
		}
		t.Logf("seed %d: received %d = solved %d + superseded %d + fallbacks %d",
			seed, received, solved, superseded, fallbacks)
		if superseded == 0 {
			t.Fatalf("seed %d: nothing coalesced; the sequence does not exercise the slot", seed)
		}
		covered := int64(0)
		for epoch, out := range outs {
			switch {
			case out.Epoch > epoch:
				covered++
			case out.Epoch != epoch:
				t.Fatalf("seed %d: epoch %d resolved to older epoch %d", seed, epoch, out.Epoch)
			}
		}
		if covered != superseded {
			t.Fatalf("seed %d: %d epochs resolved to a later outcome, %d superseded", seed, covered, superseded)
		}
		servesLatest(t, e)

		control := captureState(e)
		e.Close()
		log.Close()
		recovered, _, _ := walEngine(t, walPath, cfg)
		got := captureState(recovered)
		if !demand.Equal(got.demand, control.demand, 1e-12) {
			t.Fatalf("seed %d: replayed matrix %v, live %v", seed, got.demand, control.demand)
		}
		if !reflect.DeepEqual(linksOf(recovered), linksOf(e)) {
			t.Fatalf("seed %d: replayed links %+v, live %+v", seed, linksOf(recovered), linksOf(e))
		}
		if got.hash != control.hash {
			t.Fatalf("seed %d: replayed hash %016x, live %016x", seed, got.hash, control.hash)
		}
	}
}
