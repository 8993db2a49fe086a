package service

import (
	"context"
	"encoding/json"
	"expvar"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"sparseroute/internal/core"
	"sparseroute/internal/demand"
	"sparseroute/internal/graph/gen"
	"sparseroute/internal/oblivious"
)

// discardResponse is a ResponseWriter that keeps the status and headers and
// only counts the body, so an allocation count is the handler's own.
type discardResponse struct {
	header http.Header
	code   int
	n      int
}

func (d *discardResponse) Header() http.Header  { return d.header }
func (d *discardResponse) WriteHeader(code int) { d.code = code }
func (d *discardResponse) Write(b []byte) (int, error) {
	if d.code == 0 {
		d.code = http.StatusOK
	}
	d.n += len(b)
	return len(b), nil
}

// nextState is a copy of st under the next epoch number: the same routing
// with an empty reply memo, as a fresh solve would build it.
func nextState(st *State) *State {
	return &State{Epoch: st.Epoch + 1, Demand: st.Demand, Routing: st.Routing,
		Congestion: st.Congestion, EdgeLoads: st.EdgeLoads, LinkVersion: st.LinkVersion}
}

// republish installs nextState of the active state. The engine's own epoch
// counter does not move, so only a test that solves nothing afterwards may
// call it.
func republish(e *Engine) *State {
	next := nextState(e.Active())
	e.publish(next)
	return next
}

// TestRoutingReadMemoAndETag pins GET /v1/routing's read path: one body and
// one strong ETag per epoch, encoded once, a bodiless 304 for a poller that
// already holds the tag, and a new tag with every new epoch.
func TestRoutingReadMemoAndETag(t *testing.T) {
	srv, e, _ := testServer(t, Config{Seed: 3}, "")
	d := demand.New()
	for u := 0; u < 8; u++ {
		for v := u + 1; v < 8; v++ {
			d.Set(u, v, float64(1+(u+v)%3))
		}
	}
	epoch, err := e.submit(d)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := e.Wait(context.Background(), epoch); err != nil || !out.OK {
		t.Fatalf("epoch %d: %+v %v", epoch, out, err)
	}
	get := func(inm string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, "/v1/routing", nil)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		rr := httptest.NewRecorder()
		srv.ServeHTTP(rr, req)
		return rr
	}

	first, second := get(""), get("")
	etag := first.Header().Get("ETag")
	if first.Code != http.StatusOK || len(etag) != 18 || etag[0] != '"' || etag[17] != '"' {
		t.Fatalf("first read: %d, ETag %q", first.Code, etag)
	}
	if second.Header().Get("ETag") != etag || second.Body.String() != first.Body.String() {
		t.Fatal("two reads of one epoch differ")
	}
	if cl := first.Header().Get("Content-Length"); cl != strconv.Itoa(first.Body.Len()) {
		t.Fatalf("Content-Length %q for a %d-byte body", cl, first.Body.Len())
	}
	var reply struct {
		Epoch   uint64          `json:"epoch"`
		Routing json.RawMessage `json:"routing"`
	}
	if err := json.Unmarshal(first.Body.Bytes(), &reply); err != nil || reply.Epoch != epoch {
		t.Fatalf("body does not decode to epoch %d: %v", epoch, err)
	}

	for _, inm := range []string{etag, "W/" + etag, `"other", ` + etag, "*"} {
		rr := get(inm)
		if rr.Code != http.StatusNotModified || rr.Body.Len() != 0 || rr.Header().Get("ETag") != etag {
			t.Fatalf("If-None-Match %s: %d with %d body bytes, ETag %q", inm, rr.Code, rr.Body.Len(), rr.Header().Get("ETag"))
		}
	}
	if rr := get(`"0000000000000000"`); rr.Code != http.StatusOK || rr.Body.String() != first.Body.String() {
		t.Fatalf("a stale tag must get the full body, got %d", rr.Code)
	}

	// A new epoch is a new tag, even over the same routing.
	republish(e)
	next := get(etag)
	if next.Code != http.StatusOK || next.Header().Get("ETag") == etag {
		t.Fatalf("new epoch: %d, ETag %q (old %q)", next.Code, next.Header().Get("ETag"), etag)
	}

	// The memo: a repeat read allocates far less than a read that also
	// encodes. publish encodes in its own goroutine, so the encoding is
	// counted on a state that was never published.
	req := httptest.NewRequest(http.MethodGet, "/v1/routing", nil)
	read := func() {
		w := &discardResponse{header: http.Header{}}
		srv.ServeHTTP(w, req)
		if w.code != http.StatusOK || w.n == 0 {
			t.Fatalf("read: %d, %d bytes", w.code, w.n)
		}
	}
	warm := testing.AllocsPerRun(20, read)
	encode := testing.AllocsPerRun(20, func() {
		if _, _, err := nextState(e.Active()).routingReply(); err != nil {
			t.Fatal(err)
		}
	})
	// A read that encodes allocates warm+encode, at least twice a repeat.
	t.Logf("allocs per read: repeat %v, encode %v", warm, encode)
	if warm > encode {
		t.Fatalf("repeat read allocates %v, an encoding %v: the reply is not memoized", warm, encode)
	}

	// Eight readers race the first read of a fresh epoch: one encoding, and
	// every reader sees it.
	st := republish(e)
	bodies := make([]string, 8)
	tags := make([]string, 8)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			rr := httptest.NewRecorder()
			srv.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/routing", nil))
			bodies[i], tags[i] = rr.Body.String(), rr.Header().Get("ETag")
		}(i)
	}
	close(start)
	wg.Wait()
	body, tag, err := st.routingReply()
	if err != nil {
		t.Fatal(err)
	}
	for i := range bodies {
		if bodies[i] != string(body) || tags[i] != tag {
			t.Fatalf("reader %d saw a different reply than the memo holds", i)
		}
	}
}

// TestPublishEncodesRoutingReply: publishing a state fills its reply memo
// with no reader asking, and the memo holds the reply a reader would encode.
// A state that lost the publish race to a newer epoch is never encoded.
func TestPublishEncodesRoutingReply(t *testing.T) {
	_, e, _ := testServer(t, Config{Seed: 5}, "")
	d := demand.New()
	d.Set(0, 5, 2)
	d.Set(1, 6, 1)
	epoch, err := e.submit(d)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := e.Wait(context.Background(), epoch); err != nil || !out.OK {
		t.Fatalf("epoch %d: %+v %v", epoch, out, err)
	}
	stale := e.Active()
	st := republish(e)
	deadline := time.Now().Add(10 * time.Second)
	for !st.reply.ready.Load() {
		if time.Now().After(deadline) {
			t.Fatal("published state's reply is still not encoded after 10s")
		}
		time.Sleep(time.Millisecond)
	}
	want, wantTag, err := nextState(stale).routingReply()
	if err != nil {
		t.Fatal(err)
	}
	if string(st.reply.body) != string(want) || st.reply.etag != wantTag || st.reply.err != nil {
		t.Fatalf("memo holds %q %s %v, an encoding gives %q %s", st.reply.body, st.reply.etag, st.reply.err, want, wantTag)
	}

	lost := &State{Epoch: stale.Epoch, Routing: stale.Routing, Congestion: stale.Congestion}
	e.publish(lost)
	if e.Active() != st {
		t.Fatal("an older epoch replaced the active state")
	}
	time.Sleep(20 * time.Millisecond)
	if lost.reply.ready.Load() {
		t.Fatal("a state that lost the publish race was encoded")
	}
}

// TestPathSystemGaugeMatchesStats: the path_system gauge counts paths in
// plain passes, once per link-state version, and after every step of a
// fail / brownout / restore sequence (recovery resampling, pruning) its
// counters equal core.PathSystem.Stats of the installed and serving systems.
func TestPathSystemGaugeMatchesStats(t *testing.T) {
	_, e, _ := testServer(t, Config{Seed: 11}, "")
	gauge := e.Metrics().Vars().Get("path_system").(expvar.Func)
	check := func(step string) {
		t.Helper()
		got := gauge().(map[string]any)
		st, serving := e.installedSystem().Stats(), e.System().Stats()
		want := map[string]int{"pairs": st.Pairs, "total_paths": st.TotalPaths,
			"serving_paths": serving.TotalPaths, "sparsity": st.Sparsity, "max_hops": st.MaxHops}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("%s: path_system %s = %v, Stats says %d", step, k, got[k], v)
			}
		}
	}
	check("startup")
	steps := []struct {
		name string
		do   func() (*LinkUpdate, error)
	}{
		{"fail 0,1", func() (*LinkUpdate, error) { return e.FailEdges(0, 1) }},
		{"brownout 2", func() (*LinkUpdate, error) { return e.setCapacity(2, 0.5) }},
		{"fail 5", func() (*LinkUpdate, error) { return e.FailEdges(5) }},
		{"restore 0", func() (*LinkUpdate, error) { return e.RestoreEdges(0) }},
		{"recover 2", func() (*LinkUpdate, error) { return e.setCapacity(2, 1) }},
		{"restore all", func() (*LinkUpdate, error) { return e.RestoreEdges(1, 5) }},
	}
	shrank := false
	for _, s := range steps {
		if _, err := s.do(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		check(s.name)
		shrank = shrank || e.System().TotalPaths() < e.installedSystem().TotalPaths()
	}
	if !shrank {
		t.Fatal("no step pruned the serving system; the sequence tests nothing")
	}
}

// grid100Engine is the grid100 workloads' engine: the 10x10 grid, a Räcke
// router, R 4, seed 7, sampled over the 600 heaviest gravity pairs, with
// that standing matrix solved and published.
func grid100Engine(tb testing.TB) *Engine {
	tb.Helper()
	g := gen.Grid(10, 10)
	d := demand.Gravity(g, 60, 600, rand.New(rand.NewPCG(600, 600)))
	router, err := oblivious.Build("raecke", g, &oblivious.BuildOptions{Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	ps, err := core.RSample(router, d.Support(), 4, 7)
	if err != nil {
		tb.Fatal(err)
	}
	e, err := New(Config{Graph: g, System: ps, RouterName: "raecke", R: 4, Seed: 7, Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(e.Close)
	epoch, err := e.submit(d)
	if err != nil {
		tb.Fatal(err)
	}
	if out, err := e.Wait(context.Background(), epoch); err != nil || !out.OK {
		tb.Fatalf("standing epoch: %+v %v", out, err)
	}
	return e
}

// BenchmarkReadRoutingGrid100 times the routing reply on the 600-pair grid
// state: "cold" is the encoding publish runs for every epoch, on a state that
// was never published, "memo" a GET /v1/routing through the handler after it.
func BenchmarkReadRoutingGrid100(b *testing.B) {
	e := grid100Engine(b)
	srv := NewServer(e, "")
	req := httptest.NewRequest(http.MethodGet, "/v1/routing", nil)
	read := func(b *testing.B) {
		w := &discardResponse{header: http.Header{}}
		srv.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("status %d", w.code)
		}
		b.SetBytes(int64(w.n))
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			body, _, err := nextState(e.Active()).routingReply()
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(body)))
		}
	})
	b.Run("memo", func(b *testing.B) {
		read(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			read(b)
		}
	})
}
