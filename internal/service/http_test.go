package service

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"sparseroute/internal/demand"
	"sparseroute/internal/flow"
	"sparseroute/internal/graph"
	"sparseroute/internal/graph/gen"
	"sparseroute/internal/oblivious"
	"sparseroute/internal/obs"
	"sparseroute/internal/wal"
)

func testServer(t *testing.T, cfg Config, snapshotPath string) (*Server, *Engine, *httptest.Server) {
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
	srv := NewServer(e, snapshotPath)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, e, ts
}

func postJSON(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	raw, _ := io.ReadAll(resp.Body)
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("bad JSON %q: %v", raw, err)
		}
	}
	return resp.StatusCode, out
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	raw, _ := io.ReadAll(resp.Body)
	// The mux answers an unknown route in plain text.
	if len(raw) > 0 && resp.Header.Get("Content-Type") != "text/plain; charset=utf-8" {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("bad JSON %q: %v", raw, err)
		}
	}
	return resp.StatusCode, out
}

// getMetrics scrapes a /metrics endpoint, checks that it is valid
// exposition, and returns its samples keyed by series without the
// sparseroute_engine_ prefix, labels included: "epochs_solved",
// `congestion{stat="p50"}`.
func getMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %d %s", url, resp.StatusCode, raw)
	}
	if err := obs.ValidateExposition(raw); err != nil {
		t.Fatalf("%s: %v\n%s", url, err, raw)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("%s: sample %q: %v", url, line, err)
		}
		out[strings.TrimPrefix(line[:i], "sparseroute_engine_")] = v
	}
	return out
}

func TestServerDemandPathsRoutingFlow(t *testing.T) {
	_, e, ts := testServer(t, Config{Seed: 3}, "")

	// Before any epoch: paths respond with zero rates, routing is 404.
	code, paths := getJSON(t, ts.URL+"/v1/paths?src=0&dst=7")
	if code != http.StatusOK {
		t.Fatalf("paths before epoch: %d %v", code, paths)
	}
	if paths["epoch"].(float64) != 0 {
		t.Fatalf("epoch %v before any demand", paths["epoch"])
	}
	if code, _ := getJSON(t, ts.URL+"/v1/routing"); code != http.StatusNotFound {
		t.Fatalf("routing before epoch: %d", code)
	}

	// Push one epoch synchronously.
	code, resp := postJSON(t, ts.URL+"/v1/demand?wait=1",
		`{"entries":[{"u":0,"v":7,"amount":2},{"u":3,"v":4,"amount":1}]}`)
	if code != http.StatusOK {
		t.Fatalf("demand: %d %v", code, resp)
	}
	if resp["solved"] != true || resp["epoch"].(float64) != 1 {
		t.Fatalf("demand response %v", resp)
	}

	// Paths now expose live rates summing to the demand amount.
	code, paths = getJSON(t, ts.URL+"/v1/paths?src=7&dst=0")
	if code != http.StatusOK {
		t.Fatalf("paths: %d %v", code, paths)
	}
	var total float64
	for _, p := range paths["paths"].([]any) {
		total += p.(map[string]any)["rate"].(float64)
	}
	if total < 1.99 || total > 2.01 {
		t.Fatalf("rates sum to %v, want 2", total)
	}

	// Routing reports the epoch and a positive congestion.
	code, routing := getJSON(t, ts.URL+"/v1/routing")
	if code != http.StatusOK || routing["epoch"].(float64) != 1 {
		t.Fatalf("routing: %d %v", code, routing)
	}
	if routing["congestion"].(float64) <= 0 {
		t.Fatalf("congestion %v", routing["congestion"])
	}

	// Metrics show the solved epoch.
	metrics := getMetrics(t, ts.URL+"/metrics")
	if metrics["epochs_solved"] < 1 {
		t.Fatalf("epochs_solved %v", metrics["epochs_solved"])
	}
	if n := metrics[`solve_latency_seconds{stat="count"}`]; n < 1 {
		t.Fatalf("latency window count %v, want at least 1", n)
	}

	// Health reports the active epoch.
	if code, h := getJSON(t, ts.URL+"/healthz"); code != http.StatusOK || h["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, h)
	}

	// Each candidate carries the weight routed over its route, whichever end
	// the routed path is stored from: republish the epoch with every (0,7)
	// path reversed and read the pair from both ends.
	st := e.Active()
	pair := demand.MakePair(0, 7)
	want := map[string]float64{}
	reversed := flow.New()
	for _, wp := range st.Routing[pair] {
		want[wp.Path.Key()] += wp.Weight
		reversed[pair] = append(reversed[pair], flow.WeightedPath{Path: wp.Path.Reverse(), Weight: wp.Weight})
	}
	for _, routing := range []flow.Routing{st.Routing, reversed} {
		e.publish(&State{Epoch: e.Active().Epoch + 1, Routing: routing, Congestion: st.Congestion})
		for _, src := range []int{0, 7} {
			_, paths := getJSON(t, fmt.Sprintf("%s/v1/paths?src=%d&dst=%d", ts.URL, src, 7-src))
			var total float64
			for _, p := range paths["paths"].([]any) {
				c := p.(map[string]any)
				var ids []int
				for _, id := range c["edges"].([]any) {
					ids = append(ids, int(id.(float64)))
				}
				key := graph.Path{Src: src, Dst: 7 - src, EdgeIDs: ids}.Key()
				if rate := c["rate"].(float64); rate != want[key] {
					t.Fatalf("src=%d candidate %v: rate %v, routed %v", src, ids, rate, want[key])
				}
				total += c["rate"].(float64)
			}
			if total < 1.99 || total > 2.01 {
				t.Fatalf("src=%d: rates sum to %v, want 2", src, total)
			}
		}
	}
}

func TestServerRejectsMalformedRequests(t *testing.T) {
	_, _, ts := testServer(t, Config{Seed: 3}, "")
	cases := []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/v1/demand", `not json`, http.StatusBadRequest},
		{"POST", "/v1/demand", `{"entries":[]}`, http.StatusBadRequest},
		{"POST", "/v1/demand", `{"entries":[{"u":0,"v":99,"amount":1}]}`, http.StatusBadRequest},
		{"GET", "/v1/paths?src=a&dst=1", "", http.StatusBadRequest},
		{"GET", "/v1/paths?src=1&dst=1", "", http.StatusBadRequest},
		{"GET", "/v1/paths?src=0&dst=400", "", http.StatusBadRequest},
		{"POST", "/v1/snapshot", "", http.StatusBadRequest}, // no path configured
		{"GET", "/debug/vars", "", http.StatusNotFound},     // /metrics is the one metrics surface
	}
	for _, c := range cases {
		var code int
		if c.method == "POST" {
			code, _ = postJSON(t, ts.URL+c.path, c.body)
		} else {
			code, _ = getJSON(t, ts.URL+c.path)
		}
		if code != c.want {
			t.Fatalf("%s %s: code %d, want %d", c.method, c.path, code, c.want)
		}
	}
}

func TestServerSnapshotEndpoint(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "system.snapshot")
	_, e, ts := testServer(t, Config{Seed: 3}, snap)

	code, resp := postJSON(t, ts.URL+"/v1/snapshot", "")
	if code != http.StatusOK {
		t.Fatalf("snapshot: %d %v", code, resp)
	}
	if resp["hash"] != fmt.Sprintf("%016x", e.Hash()) {
		t.Fatalf("hash mismatch: %v", resp)
	}
	f, err := os.Open(snap)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	restored, err := Restore(f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if restored.Hash() != e.Hash() {
		t.Fatal("snapshot file does not restore to the same system")
	}
}

// TestServerConcurrentDemandAndReads is the race-focused test: it hammers
// POST /v1/demand and GET /v1/paths / /v1/routing / /metrics
// concurrently on a small hypercube engine. Run with -race; the invariant
// under test is that lock-free reads stay consistent while epochs solve and
// publish.
func TestServerConcurrentDemandAndReads(t *testing.T) {
	_, _, ts := testServer(t, Config{Seed: 5, Workers: 4}, "")
	client := ts.Client()

	const writers, readers, iters = 4, 6, 12
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 0xbeef))
			for i := 0; i < iters; i++ {
				u := rng.IntN(8)
				v := (u + 1 + rng.IntN(7)) % 8
				if u > v {
					u, v = v, u
				}
				body := fmt.Sprintf(`{"entries":[{"u":%d,"v":%d,"amount":%d}]}`, u, v, 1+rng.IntN(3))
				resp, err := client.Post(ts.URL+"/v1/demand?wait=1", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				// 200 (solved) and 503 (shed) are both legal under load.
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
					t.Errorf("demand: unexpected status %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}
	urls := []string{"/v1/paths?src=0&dst=7", "/v1/paths?src=2&dst=5", "/v1/routing", "/metrics", "/healthz"}
	for rdr := 0; rdr < readers; rdr++ {
		wg.Add(1)
		go func(rdr int) {
			defer wg.Done()
			for i := 0; i < iters*3; i++ {
				resp, err := client.Get(ts.URL + urls[(rdr+i)%len(urls)])
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
					t.Errorf("read: unexpected status %d", resp.StatusCode)
					return
				}
			}
		}(rdr)
	}
	wg.Wait()

	// After the dust settles every accepted epoch must be accounted for.
	metrics := getMetrics(t, ts.URL+"/metrics")
	received := metrics["epochs_received"]
	solved := metrics["epochs_solved"]
	fallbacks := metrics["fallbacks"]
	if solved+fallbacks < received {
		// Some epochs may legitimately still be in flight here, so drain.
		t.Logf("received=%v solved=%v fallbacks=%v (some in flight)", received, solved, fallbacks)
	}
	if solved < 1 {
		t.Fatal("no epoch solved during the hammer run")
	}
}

// TestServerWaitFlagParsing pins the ?wait semantics: absent or a strconv
// false ("0", "false") returns 202 immediately, any strconv true blocks on
// the solve, and a malformed value is a 400 that does NOT consume an epoch.
func TestServerWaitFlagParsing(t *testing.T) {
	_, e, ts := testServer(t, Config{Seed: 3}, "")
	body := `{"entries":[{"u":0,"v":7,"amount":1}]}`

	for _, q := range []string{"", "?wait=0", "?wait=false", "?wait=F"} {
		code, resp := postJSON(t, ts.URL+"/v1/demand"+q, body)
		if code != http.StatusAccepted {
			t.Fatalf("POST /v1/demand%s: code %d %v, want 202", q, code, resp)
		}
		if resp["solved"] == true {
			t.Fatalf("POST /v1/demand%s waited for the solve: %v", q, resp)
		}
		if resp["epoch"].(float64) < 1 {
			t.Fatalf("POST /v1/demand%s: missing epoch in %v", q, resp)
		}
	}
	for _, q := range []string{"?wait=1", "?wait=true", "?wait=TRUE"} {
		code, resp := postJSON(t, ts.URL+"/v1/demand"+q, body)
		if code != http.StatusOK || resp["solved"] != true {
			t.Fatalf("POST /v1/demand%s: code %d %v, want solved 200", q, code, resp)
		}
	}

	received := e.Metrics().received.Value()
	code, resp := postJSON(t, ts.URL+"/v1/demand?wait=yes", body)
	if code != http.StatusBadRequest {
		t.Fatalf("malformed wait: code %d %v, want 400", code, resp)
	}
	if got := e.Metrics().received.Value(); got != received {
		t.Fatalf("malformed wait consumed an epoch: received %d -> %d", received, got)
	}
}

func TestServerLinksEndpoint(t *testing.T) {
	_, e, ts := testServer(t, Config{Seed: 11}, "")

	// Baseline: GET reports version 1, ok, no failures.
	code, body := getJSON(t, ts.URL+"/v1/links")
	if code != http.StatusOK || body["status"] != "ok" || body["version"].(float64) != 1 {
		t.Fatalf("initial links: %d %v", code, body)
	}
	hash0 := body["hash"]

	// Fail an edge: degraded, version bumped, edge listed.
	code, body = postJSON(t, ts.URL+"/v1/links", `{"fail":[0]}`)
	if code != http.StatusOK || body["status"] != "degraded" {
		t.Fatalf("fail event: %d %v", code, body)
	}
	if body["version"].(float64) != 2 {
		t.Fatalf("version %v, want 2", body["version"])
	}
	edges, _ := body["failed_edges"].([]any)
	if len(edges) != 1 || edges[0].(float64) != 0 {
		t.Fatalf("failed_edges %v", body["failed_edges"])
	}

	// Restore via set (declarative empty set): back to ok.
	code, body = postJSON(t, ts.URL+"/v1/links", `{"set":[]}`)
	if code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("set event: %d %v", code, body)
	}
	if body["uncovered_pairs"].(float64) != 0 {
		t.Fatalf("uncovered after restore: %v", body)
	}
	if body["hash"] == "" || hash0 == "" {
		t.Fatal("hash missing from links response")
	}

	// Malformed bodies and unknown edges are 400s.
	for _, bad := range []string{
		`{`,                                    // not JSON
		`{}`,                                   // no directive at all
		`{"set":[1],"fail":[2]}`,               // set is exclusive
		`{"fail":[99999]}`,                     // unknown edge
		`{"restore":[-1]}`,                     // unknown edge
		`{"edge":0}`,                           // capacity missing
		`{"capacity":0.5}`,                     // edge missing
		`{"edge":0,"capacity":0.5,"fail":[1]}`, // capacity is exclusive
		`{"edge":99999,"capacity":0.5}`,        // unknown edge
		`{"edge":0,"capacity":-1}`,             // bad multiplier
	} {
		if code, body := postJSON(t, ts.URL+"/v1/links", bad); code != http.StatusBadRequest {
			t.Fatalf("body %q: code %d %v, want 400", bad, code, body)
		}
	}

	// A closed engine answers 503.
	e.Close()
	if code, _ := postJSON(t, ts.URL+"/v1/links", `{"fail":[1]}`); code != http.StatusServiceUnavailable {
		t.Fatalf("closed engine link event: code %d, want 503", code)
	}
}

// TestServerCapacityEvents drives the brownout drill over HTTP: degrade,
// observe the reported link state and health, recover.
func TestServerCapacityEvents(t *testing.T) {
	_, _, ts := testServer(t, Config{Seed: 11}, "")

	code, body := postJSON(t, ts.URL+"/v1/links", `{"edge":0,"capacity":0.5}`)
	if code != http.StatusOK || body["status"] != "degraded" {
		t.Fatalf("capacity event: %d %v", code, body)
	}
	if edges, _ := body["failed_edges"].([]any); len(edges) != 0 {
		t.Fatalf("capacity degradation must not fail edges: %v", body["failed_edges"])
	}
	degraded, _ := body["degraded_edges"].([]any)
	if len(degraded) != 1 {
		t.Fatalf("degraded_edges %v, want one entry", body["degraded_edges"])
	}
	entry := degraded[0].(map[string]any)
	if entry["edge"].(float64) != 0 || entry["capacity"].(float64) != 0.5 {
		t.Fatalf("degraded entry %v", entry)
	}

	// GET /v1/links and /healthz report the override too.
	if code, got := getJSON(t, ts.URL+"/v1/links"); code != http.StatusOK || got["status"] != "degraded" {
		t.Fatalf("links while degraded: %d %v", code, got)
	}
	code, h := getJSON(t, ts.URL+"/healthz")
	if code != http.StatusOK || h["status"] != "degraded" {
		t.Fatalf("healthz while capacity-degraded: %d %v", code, h)
	}
	if got, _ := h["degraded_edges"].([]any); len(got) != 1 {
		t.Fatalf("healthz degraded_edges %v", h["degraded_edges"])
	}
	if got, _ := h["failed_edges"].([]any); len(got) != 0 {
		t.Fatalf("healthz failed_edges %v, want none", h["failed_edges"])
	}

	// Metrics expose the gauge and the counter.
	metrics := getMetrics(t, ts.URL+"/metrics")
	if metrics["degraded_edges"] != 1 || metrics["capacity_events"] != 1 {
		t.Fatalf("metrics degraded_edges=%v capacity_events=%v", metrics["degraded_edges"], metrics["capacity_events"])
	}

	// Recover: back to ok, override gone.
	code, body = postJSON(t, ts.URL+"/v1/links", `{"edge":0,"capacity":1}`)
	if code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("recovery event: %d %v", code, body)
	}
	if got, _ := body["degraded_edges"].([]any); len(got) != 0 {
		t.Fatalf("degraded_edges after recovery: %v", body["degraded_edges"])
	}
}

func TestServerHealthStateMachine(t *testing.T) {
	_, e, ts := testServer(t, Config{Seed: 11}, "")

	code, h := getJSON(t, ts.URL+"/healthz")
	if code != http.StatusOK || h["status"] != "ok" {
		t.Fatalf("healthz ok: %d %v", code, h)
	}

	// Prime an epoch so the health report carries a last outcome.
	if code, body := postJSON(t, ts.URL+"/v1/demand?wait=1", `{"entries":[{"u":0,"v":7,"amount":1}]}`); code != http.StatusOK {
		t.Fatalf("demand: %d %v", code, body)
	}

	// Degraded surfaces the failed-edge list and stays 200 (still serving).
	if _, err := e.FailEdges(0); err != nil {
		t.Fatal(err)
	}
	code, h = getJSON(t, ts.URL+"/healthz")
	if code != http.StatusOK || h["status"] != "degraded" {
		t.Fatalf("healthz degraded: %d %v", code, h)
	}
	if edges, _ := h["failed_edges"].([]any); len(edges) != 1 || edges[0].(float64) != 0 {
		t.Fatalf("healthz failed_edges: %v", h["failed_edges"])
	}
	// The link event published an interim renormalized epoch (empty demand,
	// but the outcome is recorded), so last_outcome is present.
	if h["last_outcome"] == nil {
		t.Fatalf("healthz missing last_outcome: %v", h)
	}

	// Closed answers 503 so load balancers stop routing to the process.
	e.Close()
	code, h = getJSON(t, ts.URL+"/healthz")
	if code != http.StatusServiceUnavailable || h["status"] != "closed" {
		t.Fatalf("healthz closed: %d %v", code, h)
	}
}

func TestWriteFileAtomicCleansTempOnFailure(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "snap")

	leftovers := func() []string {
		t.Helper()
		matches, err := filepath.Glob(filepath.Join(dir, ".snapshot-*"))
		if err != nil {
			t.Fatal(err)
		}
		return matches
	}

	// Failing writer: error propagates, temp file removed.
	wantErr := fmt.Errorf("injected write failure")
	if _, err := writeFileAtomic(target, func(io.Writer) error { return wantErr }); err != wantErr {
		t.Fatalf("err=%v, want injected failure", err)
	}
	if l := leftovers(); len(l) != 0 {
		t.Fatalf("temp files left after write failure: %v", l)
	}
	if _, err := os.Stat(target); !os.IsNotExist(err) {
		t.Fatalf("target exists after failed write: %v", err)
	}

	// Rename failure (target is a non-empty directory): temp file removed.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := writeFileAtomic(blocked, func(w io.Writer) error {
		_, err := w.Write([]byte("payload"))
		return err
	}); err == nil {
		t.Fatal("rename onto non-empty directory succeeded")
	}
	if l := leftovers(); len(l) != 0 {
		t.Fatalf("temp files left after rename failure: %v", l)
	}

	// CreateTemp failure (parent is a file, not a directory): clean error.
	notDir := filepath.Join(dir, "file")
	if err := os.WriteFile(notDir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := writeFileAtomic(filepath.Join(notDir, "snap"), func(io.Writer) error { return nil }); err == nil {
		t.Fatal("CreateTemp under a file succeeded")
	}

	// The success path still works and leaves exactly the target behind.
	n, err := writeFileAtomic(target, func(w io.Writer) error {
		_, err := w.Write([]byte("payload"))
		return err
	})
	if err != nil || n != int64(len("payload")) {
		t.Fatalf("success path: n=%d err=%v", n, err)
	}
	if l := leftovers(); len(l) != 0 {
		t.Fatalf("temp files left after success: %v", l)
	}
	got, err := os.ReadFile(target)
	if err != nil || string(got) != "payload" {
		t.Fatalf("target content %q err=%v", got, err)
	}
}

// TestEngineSnapshotToFileFailedEngineWrite: when the engine's snapshot is
// written in full but cannot be renamed into place (the target is a
// non-empty directory), SnapshotToFile returns the error, removes its temp
// file, and neither truncates the log nor counts a checkpoint; a later
// snapshot to a good path checkpoints.
func TestEngineSnapshotToFileFailedEngineWrite(t *testing.T) {
	dir := t.TempDir()
	log, _, err := wal.Open(filepath.Join(dir, "sys.wal"), &wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	_, e, _ := testServer(t, Config{Seed: 11, WAL: log}, "")
	blocked := filepath.Join(dir, "snap")
	if err := os.MkdirAll(filepath.Join(blocked, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	before := e.metrics.checkpoints.Value()
	if n, err := e.SnapshotToFile(blocked); err == nil {
		t.Fatalf("snapshot onto a non-empty directory succeeded (%d bytes)", n)
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, ".snapshot-*")); len(matches) != 0 {
		t.Fatalf("temp files left: %v", matches)
	}
	if got := e.metrics.checkpoints.Value(); got != before {
		t.Fatalf("a failed snapshot counted as a checkpoint: %d -> %d", before, got)
	}
	if n, err := e.SnapshotToFile(filepath.Join(dir, "good")); err != nil || n == 0 {
		t.Fatalf("snapshot after the failure: %d bytes, %v", n, err)
	}
	if got := e.metrics.checkpoints.Value(); got != before+1 {
		t.Fatalf("a good snapshot counted %d checkpoints", got-before)
	}
}

// TestLinksReplyHashesItsOwnState: a POST /v1/links reply and a POST
// /v1/snapshot reply report the hash of the link state they describe, not of
// whatever state the engine has moved on to by the time the reply is
// rendered. Event A's reply is rendered after a later event B changed the
// installed system, as a concurrent event can; it must still carry A's hash.
func TestLinksReplyHashesItsOwnState(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "sys.snap")
	srv, e, _ := testServer(t, Config{Seed: 11}, snap)
	start := e.Hash()
	updateA, err := e.FailEdges(0)
	if err != nil {
		t.Fatal(err)
	}
	hashA := e.Hash()
	if _, err := e.FailEdges(5); err != nil {
		t.Fatal(err)
	}
	if hashA == start || e.Hash() == hashA {
		t.Fatalf("hashes %016x, %016x, %016x: each event must change the installed system", start, hashA, e.Hash())
	}
	if got, want := srv.linksJSON(updateA), fmt.Sprintf("%016x", hashA); got.Hash != want || got.Version != 2 {
		t.Fatalf("event A's reply: version %d hash %s, want version 2 hash %s", got.Version, got.Hash, want)
	}

	_, ls, err := e.checkpoint(snap)
	if err != nil {
		t.Fatal(err)
	}
	hashB := e.Hash()
	if _, err := e.RestoreEdges(0, 5); err != nil {
		t.Fatal(err)
	}
	if ls.version != 3 || ls.digest(e.pairs) != hashB {
		t.Fatalf("checkpoint reports version %d hash %016x, want the state it wrote: version 3 hash %016x", ls.version, ls.digest(e.pairs), hashB)
	}
	f, err := os.Open(snap)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	restored, err := Restore(f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if got := restored.Hash(); got != hashB {
		t.Fatalf("snapshot restores to %016x, its reply would say %016x", got, hashB)
	}
}
