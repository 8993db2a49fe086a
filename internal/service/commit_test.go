package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparseroute/internal/demand"
	"sparseroute/internal/oblivious"
	"sparseroute/internal/wal"
)

// hookWriter is the OS-file WAL writer with hook run before every fsync,
// given its 1-based call count: a hook error fails that fsync without
// touching the device, and a blocking hook holds it in flight. After every
// fsync that succeeds it keeps a copy of the file, what a crash would leave.
type hookWriter struct {
	*os.File
	hook    func(call int64) error
	calls   atomic.Int64
	mu      sync.Mutex
	durable []byte
}

func (w *hookWriter) Sync() error {
	if err := w.hook(w.calls.Add(1)); err != nil {
		return err
	}
	if err := w.File.Sync(); err != nil {
		return err
	}
	data, err := os.ReadFile(w.Name())
	w.mu.Lock()
	w.durable = data
	w.mu.Unlock()
	return err
}

// lastDurableOp decodes the last record the last successful fsync left on
// the device.
func (w *hookWriter) lastDurableOp(t *testing.T) *walOp {
	t.Helper()
	w.mu.Lock()
	recs, _ := wal.Scan(w.durable)
	w.mu.Unlock()
	if len(recs) == 0 {
		t.Fatal("nothing durable")
	}
	op := new(walOp)
	if err := json.Unmarshal(recs[len(recs)-1], op); err != nil {
		t.Fatal(err)
	}
	return op
}

// hookedEngine is testEngine with a WAL at dir/sys.wal whose fsyncs run
// hook; cfg supplies the rest.
func hookedEngine(tb testing.TB, dir string, cfg Config, hook func(call int64) error) (*Engine, *wal.Log, *hookWriter) {
	tb.Helper()
	var hw *hookWriter
	log, _, err := wal.Open(filepath.Join(dir, "sys.wal"), &wal.Options{OpenWriter: func(path string) (wal.Writer, error) {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		hw = &hookWriter{File: f, hook: hook}
		return hw, nil
	}})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { log.Close() })
	cfg.WAL = log
	return testEngine(tb, cfg), log, hw
}

// replayedDemand is the demand a fresh engine over e's startup sample gets
// from the log file at path as it now stands.
func replayedDemand(t *testing.T, e *Engine, path string) *demand.Demand {
	t.Helper()
	log, rec, err := wal.Open(path, &wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	log.Close()
	r := testEngine(t, Config{Graph: e.cfg.Graph, System: e.original})
	if _, err := r.ReplayWAL(rec); err != nil {
		t.Fatal(err)
	}
	return r.LastSubmitted()
}

func pairDemand(entries ...PairAmount) *demand.Demand {
	d := demand.New()
	for _, en := range entries {
		d.Set(en.U, en.V, en.Amount)
	}
	return d
}

// waitIdle waits until the drain has nothing left to solve.
func waitIdle(t *testing.T, e *Engine) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		e.mu.Lock()
		idle := !e.draining
		e.mu.Unlock()
		if idle {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the drain never went idle")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRefusedAcceptReplaysLive: an accept whose fsync fails is refused, yet
// its frame stays in the file. The failed fsync breaks the log, so the next
// mutation is refused too rather than make that frame durable behind the
// live engine's back, and a reopen of the log gives the live demand.
func TestRefusedAcceptReplaysLive(t *testing.T) {
	dir := t.TempDir()
	e, _, _ := hookedEngine(t, dir, Config{Seed: 3}, func(call int64) error {
		if call == 2 {
			return wal.ErrInjected
		}
		return nil
	})
	submitAndWait(t, e, pairDemand(PairAmount{U: 0, V: 7, Amount: 1}))
	if _, err := e.submit(pairDemand(PairAmount{U: 1, V: 6, Amount: 1})); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("submit over a failing fsync: %v, want ErrInjected", err)
	}
	if _, err := e.patch([]PairAmount{{U: 2, V: 5, Amount: 1}}, nil); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("patch after a failed fsync: %v, want the sticky ErrInjected", err)
	}
	live := e.LastSubmitted()
	if got := replayedDemand(t, e, filepath.Join(dir, "sys.wal")); !sameDemand(got, live) {
		t.Fatalf("reopened log gives demand %v, live %v", got, live)
	}
}

// TestConcurrentAcceptsShareFsync: eight writers accept 400 demands on a
// WAL whose fsync takes 2 ms. Each accept appends under e.mu and waits for
// its fsync outside it, so writers queued behind one fsync share the next:
// at most one fsync per two accepts, where holding e.mu across the fsync
// paid one per accept.
func TestConcurrentAcceptsShareFsync(t *testing.T) {
	const writers, each = 8, 50
	e, _, hw := hookedEngine(t, t.TempDir(), Config{Seed: 3}, func(int64) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	errs := make(chan error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				d := pairDemand(PairAmount{U: w % 8, V: (w + 1 + i%7) % 8, Amount: float64(1 + i)})
				if _, err := e.SubmitDemandCtx(context.Background(), d); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	waitIdle(t, e)
	t.Logf("%d fsyncs for %d accepts", hw.calls.Load(), writers*each)
	if got := hw.calls.Load(); got > writers*each/2 {
		t.Fatalf("%d fsyncs for %d accepts, want at most %d", got, writers*each, writers*each/2)
	}
}

// BenchmarkConcurrentAccept: one and eight writers accepting one-pair
// demands on a WAL whose fsync sleeps 2 ms, reporting the fsyncs each accept
// paid for.
func BenchmarkConcurrentAccept(b *testing.B) {
	for _, writers := range []int{1, 8} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			e, _, hw := hookedEngine(b, b.TempDir(), Config{Seed: 3}, func(int64) error {
				time.Sleep(2 * time.Millisecond)
				return nil
			})
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
						d := pairDemand(PairAmount{U: int(i % 8), V: int(i+1+i%6) % 8, Amount: 1})
						if _, err := e.SubmitDemandCtx(context.Background(), d); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(hw.calls.Load())/float64(b.N), "fsyncs/accept")
		})
	}
}

// TestUnsyncedDemandNotServed: while an accept's fsync is in flight, its
// demand is in the slot and the drain may pick it up, but neither Active
// nor GET /v1/routing shows it and its client has no reply: the drain waits
// for the fsync before it solves.
func TestUnsyncedDemandNotServed(t *testing.T) {
	var block atomic.Bool
	var once sync.Once
	entered, release := make(chan struct{}), make(chan struct{})
	e, _, _ := hookedEngine(t, t.TempDir(), Config{Seed: 3}, func(int64) error {
		if block.Load() {
			once.Do(func() { close(entered) })
			<-release
		}
		return nil
	})
	srv := NewServer(e, "")
	routing := func() string {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/routing", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /v1/routing: %d %s", rec.Code, rec.Body)
		}
		return rec.Header().Get("ETag")
	}
	d1 := pairDemand(PairAmount{U: 0, V: 7, Amount: 1})
	submitAndWait(t, e, d1)
	served := routing()

	block.Store(true)
	reply := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/demand?wait=1",
			strings.NewReader(`{"entries":[{"u":1,"v":6,"amount":2}]}`)))
		reply <- rec
	}()
	<-entered
	// Let the drain pick the demand up.
	for picked := false; !picked; time.Sleep(time.Millisecond) {
		e.mu.Lock()
		picked = e.slot == nil
		e.mu.Unlock()
	}
	time.Sleep(50 * time.Millisecond)
	if st := e.Active(); !sameDemand(st.Demand, d1) {
		t.Fatalf("Active serves %v before its fsync returned", st.Demand)
	}
	if got := routing(); got != served {
		t.Fatalf("GET /v1/routing moved to %s before the fsync returned", got)
	}
	select {
	case rec := <-reply:
		t.Fatalf("the client got %d %s before its fsync returned", rec.Code, rec.Body)
	default:
	}

	close(release)
	if rec := <-reply; rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/demand?wait=1: %d %s", rec.Code, rec.Body)
	}
	if st := e.Active(); !sameDemand(st.Demand, pairDemand(PairAmount{U: 1, V: 6, Amount: 2})) {
		t.Fatalf("Active serves %v after the fsync", st.Demand)
	}
}

// TestFailedSyncCohortNotServed: accepts that queue behind an fsync that
// fails all get its error, none of their demands is published, and a reopen
// of the log gives the live demand. The next checkpoint rewrites the log and
// the engine accepts and serves again.
func TestFailedSyncCohortNotServed(t *testing.T) {
	dir := t.TempDir()
	var armed atomic.Bool
	var once sync.Once
	entered, release := make(chan struct{}), make(chan struct{})
	e, log, _ := hookedEngine(t, dir, Config{Seed: 3}, func(int64) error {
		if !armed.Load() {
			return nil
		}
		once.Do(func() { close(entered) })
		<-release
		return wal.ErrInjected
	})
	submitAndWait(t, e, pairDemand(PairAmount{U: 0, V: 7, Amount: 1}))
	before := e.Active()
	records := log.Records()

	armed.Store(true)
	errs := make(chan error, 3)
	go func() {
		_, err := e.submit(pairDemand(PairAmount{U: 1, V: 6, Amount: 1}))
		errs <- err
	}()
	<-entered
	go func() {
		_, err := e.patch([]PairAmount{{U: 2, V: 5, Amount: 1}}, nil)
		errs <- err
	}()
	go func() {
		_, err := e.submit(pairDemand(PairAmount{U: 3, V: 4, Amount: 2}))
		errs <- err
	}()
	for log.Records() < records+3 {
		time.Sleep(time.Millisecond)
	}
	armed.Store(false)
	close(release)
	for i := 0; i < 3; i++ {
		if err := <-errs; !errors.Is(err, wal.ErrInjected) {
			t.Fatalf("an accept of the failed cohort got %v, want ErrInjected", err)
		}
	}
	waitIdle(t, e)
	if e.Active() != before {
		t.Fatalf("the failed cohort published epoch %d", e.Active().Epoch)
	}
	live := e.LastSubmitted()
	if got := replayedDemand(t, e, filepath.Join(dir, "sys.wal")); !sameDemand(got, live) {
		t.Fatalf("reopened log gives demand %v, live %v", got, live)
	}

	if _, err := e.SnapshotToFile(filepath.Join(dir, "sys.snap")); err != nil {
		t.Fatal(err)
	}
	d := pairDemand(PairAmount{U: 0, V: 5, Amount: 1})
	submitAndWait(t, e, d)
	if st := e.Active(); !sameDemand(st.Demand, d) {
		t.Fatalf("after the checkpoint Active serves %v, want %v", st.Demand, d)
	}
}

// TestAcceptAcrossCheckpointKeepsDemand: an accept queued behind an fsync
// in flight when a checkpoint rewrites the log is acknowledged only once its
// demand is durable, as its own record or as the checkpoint's seed, and a
// reopen from the checkpoint's snapshot and log gives it.
func TestAcceptAcrossCheckpointKeepsDemand(t *testing.T) {
	dir := t.TempDir()
	var armed atomic.Bool
	var once sync.Once
	entered, release := make(chan struct{}), make(chan struct{})
	e, log, hw := hookedEngine(t, dir, Config{Seed: 3}, func(int64) error {
		if armed.Load() {
			once.Do(func() { close(entered) })
			<-release
		}
		return nil
	})
	submitAndWait(t, e, pairDemand(PairAmount{U: 0, V: 7, Amount: 1}))
	records := log.Records()

	armed.Store(true)
	first := make(chan error, 1)
	go func() {
		_, err := e.submit(pairDemand(PairAmount{U: 1, V: 6, Amount: 1}))
		first <- err
	}()
	<-entered
	want := pairDemand(PairAmount{U: 3, V: 4, Amount: 2})
	queued := make(chan error, 1)
	go func() {
		_, err := e.submit(want)
		queued <- err
	}()
	for log.Records() < records+2 {
		time.Sleep(time.Millisecond)
	}
	snap := filepath.Join(dir, "sys.snap")
	checkpoint := make(chan error, 1)
	go func() {
		_, err := e.SnapshotToFile(snap)
		checkpoint <- err
	}()
	// The snapshot is in place before the checkpoint rewrites the log, which
	// waits on the commit barrier.
	for _, err := os.Stat(snap); err != nil; _, err = os.Stat(snap) {
		time.Sleep(time.Millisecond)
	}
	armed.Store(false)
	close(release)
	if err := <-queued; err != nil {
		t.Fatal(err)
	}
	op := hw.lastDurableOp(t)
	if got := pairDemand(op.Entries...); op.Op != walOpSubmit || !sameDemand(got, want) {
		t.Fatalf("acknowledged with %+v last on the device, want a submit of %v", op, want)
	}
	for _, ch := range []chan error{first, checkpoint} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	opened, err := Open(Files{Snapshot: snap, WAL: filepath.Join(dir, "sys.wal")}, Config{Workers: 1}, oblivious.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer opened.WAL.Close()
	defer opened.Engine.Close()
	if got := opened.Engine.LastSubmitted(); !sameDemand(got, want) {
		t.Fatalf("reopened demand %v, want %v", got, want)
	}
}

// TestConcurrentMixReplaysLive: four goroutines mix submits, patches and
// link fail/restore events on one engine; a reopen of its log gives the live
// hash, link report and demand.
func TestConcurrentMixReplaysLive(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "live.wal")
	open := hypercubeOpener(t, dir)
	live := open(walPath)
	n, m := live.cfg.Graph.NumVertices(), live.cfg.Graph.NumEdges()
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 77))
			pair := func() (int, int) {
				u := rng.IntN(n)
				return u, (u + 1 + rng.IntN(n-1)) % n
			}
			for i := 0; i < 25; i++ {
				var err error
				switch k := rng.IntN(4); k {
				case 0:
					u, v := pair()
					_, err = live.submit(pairDemand(PairAmount{U: u, V: v, Amount: float64(1 + rng.IntN(4))}))
				case 1:
					u, v := pair()
					_, err = live.patch([]PairAmount{{U: u, V: v, Amount: float64(1 + rng.IntN(4))}}, nil)
					if errors.Is(err, errNoBaseDemand) {
						err = nil
					}
				case 2:
					_, err = live.FailEdges(rng.IntN(m))
				default:
					_, err = live.RestoreEdges(rng.IntN(m))
				}
				if err != nil {
					errs <- fmt.Errorf("writer %d op %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if v := linksOf(live).Version; v < 10 || live.LastSubmitted() == nil {
		t.Fatalf("link version %d, demand %v: the mix must exercise both kinds", v, live.LastSubmitted())
	}

	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	copied := filepath.Join(dir, "copy.wal")
	if err := os.WriteFile(copied, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	r := open(copied)
	if got, want := r.Hash(), live.Hash(); got != want {
		t.Fatalf("reopened hash %016x, live %016x", got, want)
	}
	if got, want := linksOf(r), linksOf(live); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened links %+v, live %+v", got, want)
	}
	if got, want := r.LastSubmitted(), live.LastSubmitted(); !sameDemand(got, want) {
		t.Fatalf("reopened demand %v, live %v", got, want)
	}
}

// TestWALCommitFailureIs500: a demand mutation the WAL cannot make durable
// failed on the server, so POST and PATCH /v1/demand answer 500, as POST
// /v1/links does; a record the engine refuses still answers 400.
func TestWALCommitFailureIs500(t *testing.T) {
	good := pairDemand(PairAmount{U: 0, V: 7, Amount: 2})
	op := submitOp(good)
	op.Seq = 1
	payload, err := json.Marshal(op)
	if err != nil {
		t.Fatal(err)
	}
	// The first record's frame fits the budget exactly, so its append
	// succeeds and its fsync is the first to fail.
	budget := int64(len(wal.AppendFrame(nil, payload)))
	log, _, err := wal.Open(filepath.Join(t.TempDir(), "sys.wal"), &wal.Options{OpenWriter: func(path string) (wal.Writer, error) {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		return wal.NewFaultWriter(f, budget, true), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	_, _, ts := testServer(t, Config{Seed: 1, WAL: log}, "")

	url := ts.URL + "/v1/demand"
	bad := `{"entries":[{"u":3,"v":3,"amount":1}]}`
	if code, body := postJSON(t, url, bad); code != http.StatusBadRequest {
		t.Fatalf("bad pair before the fault: %d %v, want 400", code, body)
	}
	if code, body := postJSON(t, url, `{"entries":[{"u":0,"v":7,"amount":2}]}`); code != http.StatusInternalServerError || !strings.Contains(fmt.Sprint(body["error"]), "wal: sync") {
		t.Fatalf("POST with a failing fsync: %d %v, want 500 naming the sync", code, body)
	}
	if code, body := patchJSON(t, url, `{"set":[{"u":0,"v":7,"amount":3}]}`); code != http.StatusInternalServerError {
		t.Fatalf("PATCH on the broken log: %d %v, want 500", code, body)
	}
	if code, body := postJSON(t, url, bad); code != http.StatusBadRequest {
		t.Fatalf("bad pair after the fault: %d %v, want 400", code, body)
	}
}
