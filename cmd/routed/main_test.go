package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"sparseroute/internal/graph/gen"
	"sparseroute/internal/obs"
	"sparseroute/internal/serial"
)

// startDaemon opens the engine from o, serves it on a random port, and
// returns the base URL plus a stop function that performs the daemon's
// graceful shutdown (drain + final snapshot when configured).
func startDaemon(t *testing.T, o *options) (string, func()) {
	t.Helper()
	h, drain, err := openEngine(o)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, l, h, drain) }()
	url := "http://" + l.Addr().String()
	stop := func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("serve: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("daemon did not shut down")
		}
	}
	return url, stop
}

func decodeBody(t *testing.T, resp *http.Response) map[string]any {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("bad JSON %q: %v", raw, err)
	}
	return out
}

// scrape GETs a /metrics endpoint, checks that it is valid exposition, and
// returns its samples keyed by series as rendered, labels included:
// sparseroute_engine_epochs_solved, or sparseroute_fleet_warm_starts.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
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
		out[line[:i]] = v
	}
	return out
}

var hashLabel = regexp.MustCompile(`^sparseroute_engine_path_system_info\{.*hash="([0-9a-f]{16})"`)

// pathSystemHash returns the hash label of the engine's path_system_info
// sample in a scrape.
func pathSystemHash(t *testing.T, metrics map[string]float64) string {
	t.Helper()
	for series := range metrics {
		if m := hashLabel.FindStringSubmatch(series); m != nil {
			return m[1]
		}
	}
	t.Fatal("no path_system_info sample with a hash label")
	return ""
}

// pathSystemHashFromMetrics scrapes the daemon at url and returns the
// path-system hash and epochs_solved.
func pathSystemHashFromMetrics(t *testing.T, url string) (string, float64) {
	t.Helper()
	metrics := scrape(t, url+"/metrics")
	return pathSystemHash(t, metrics), metrics["sparseroute_engine_epochs_solved"]
}

// TestDaemonEndToEnd is the acceptance test: serve → POST a demand epoch →
// adapted routing visible via GET /v1/paths → /metrics shows the epoch
// solved → kill → restart from snapshot → identical path-system hash with
// no resampling.
func TestDaemonEndToEnd(t *testing.T) {
	dir := t.TempDir()
	topo := filepath.Join(dir, "topo.json")
	snap := filepath.Join(dir, "system.snapshot")

	f, err := os.Create(topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.EncodeGraph(f, gen.Hypercube(3)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	o, err := parseFlags([]string{
		"-topo", topo, "-router", "valiant", "-s", "3", "-seed", "11",
		"-workers", "2", "-snapshot", snap,
	})
	if err != nil {
		t.Fatal(err)
	}

	url, stop := startDaemon(t, o)

	// Push one epoch and wait for the solve.
	resp, err := http.Post(url+"/v1/demand?wait=1", "application/json",
		strings.NewReader(`{"entries":[{"u":0,"v":7,"amount":2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("demand status %d", resp.StatusCode)
	}
	ep := decodeBody(t, resp)
	if ep["solved"] != true {
		t.Fatalf("epoch not solved: %v", ep)
	}

	// The adapted routing is visible through the path lookup: the rates over
	// (0,7)'s candidates sum to the pushed amount.
	resp, err = http.Get(url + "/v1/paths?src=0&dst=7")
	if err != nil {
		t.Fatal(err)
	}
	paths := decodeBody(t, resp)
	if paths["epoch"].(float64) < 1 {
		t.Fatalf("paths not served from a solved epoch: %v", paths)
	}
	var total float64
	for _, p := range paths["paths"].([]any) {
		total += p.(map[string]any)["rate"].(float64)
	}
	if total < 1.99 || total > 2.01 {
		t.Fatalf("rates sum to %v, want 2", total)
	}

	// Metrics show at least one epoch solved; remember the system hash.
	hash1, solved := pathSystemHashFromMetrics(t, url)
	if solved < 1 {
		t.Fatalf("epochs_solved=%v, want >= 1", solved)
	}

	// Snapshot explicitly, then kill the daemon (graceful shutdown also
	// rewrites the snapshot — both paths must agree).
	resp, err = http.Post(url+"/v1/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	snapResp := decodeBody(t, resp)
	if snapResp["hash"] != hash1 {
		t.Fatalf("snapshot hash %v != metrics hash %v", snapResp["hash"], hash1)
	}
	stop()

	// Restart: the topology file is deliberately removed to prove restore
	// does not resample — the snapshot alone must carry the system.
	if err := os.Remove(topo); err != nil {
		t.Fatal(err)
	}
	url2, stop2 := startDaemon(t, o)
	defer stop2()

	hash2, _ := pathSystemHashFromMetrics(t, url2)
	if hash2 != hash1 {
		t.Fatalf("restored hash %s != original %s", hash2, hash1)
	}

	// The restored daemon keeps serving epochs.
	resp, err = http.Post(url2+"/v1/demand?wait=1", "application/json",
		strings.NewReader(`{"entries":[{"u":1,"v":6,"amount":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	ep = decodeBody(t, resp)
	if ep["solved"] != true {
		t.Fatalf("restored daemon failed to solve: %v", ep)
	}
}

// TestDaemonShutdownWritesSnapshot checks the graceful-shutdown path writes
// a restorable snapshot even when the operator never POSTed one.
func TestDaemonShutdownWritesSnapshot(t *testing.T) {
	dir := t.TempDir()
	topo := filepath.Join(dir, "topo.json")
	snap := filepath.Join(dir, "auto.snapshot")

	f, err := os.Create(topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.EncodeGraph(f, gen.Hypercube(3)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	o, err := parseFlags([]string{"-topo", topo, "-router", "spf", "-s", "2", "-snapshot", snap})
	if err != nil {
		t.Fatal(err)
	}
	url, stop := startDaemon(t, o)
	if _, err := http.Get(url + "/healthz"); err != nil {
		t.Fatal(err)
	}
	stop()

	sf, err := os.Open(snap)
	if err != nil {
		t.Fatalf("shutdown did not write snapshot: %v", err)
	}
	defer sf.Close()
	s, err := serial.DecodeSnapshot(sf)
	if err != nil {
		t.Fatal(err)
	}
	if s.Router != "spf" || s.R != 2 || s.System.TotalPaths() == 0 {
		t.Fatalf("snapshot metadata wrong: %+v", s)
	}
}

func TestParseFlagsDefaults(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.engine.RouterName != "raecke" || o.engine.R != 4 || o.engine.Workers != 2 {
		t.Fatalf("defaults drifted: %+v", o)
	}
	if _, err := parseFlags([]string{"-deadline", "250ms"}); err != nil {
		t.Fatal(err)
	}
	if _, err := parseFlags([]string{"-nope"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestBuildEngineUnknownRouter(t *testing.T) {
	dir := t.TempDir()
	topo := filepath.Join(dir, "topo.json")
	f, _ := os.Create(topo)
	serial.EncodeGraph(f, gen.Hypercube(2))
	f.Close()
	o, err := parseFlags([]string{"-topo", topo, "-router", "bogus"})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = openEngine(o)
	if err == nil {
		t.Fatal("unknown router accepted")
	}
	if !strings.Contains(fmt.Sprint(err), "bogus") {
		t.Fatalf("error should name the router: %v", err)
	}
}

// TestDaemonDeadlineCancelsSolve: with an impossible -deadline every solve is
// canceled rather than orphaned — the epoch reports a fallback, ?wait=0
// returns 202 immediately, and /metrics exposes the cancellation counter.
func TestDaemonDeadlineCancelsSolve(t *testing.T) {
	dir := t.TempDir()
	topo := filepath.Join(dir, "topo.json")
	f, err := os.Create(topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.EncodeGraph(f, gen.Hypercube(3)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	o, err := parseFlags([]string{"-topo", topo, "-router", "spf", "-s", "2", "-deadline", "1ns"})
	if err != nil {
		t.Fatal(err)
	}
	url, stop := startDaemon(t, o)
	defer stop()

	// ?wait=0 must not block on the (doomed) solve.
	resp, err := http.Post(url+"/v1/demand?wait=0", "application/json",
		strings.NewReader(`{"entries":[{"u":0,"v":7,"amount":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("wait=0 status %d, want 202", resp.StatusCode)
	}
	resp.Body.Close()

	// ?wait=1 observes the deadline fallback.
	resp, err = http.Post(url+"/v1/demand?wait=1", "application/json",
		strings.NewReader(`{"entries":[{"u":1,"v":6,"amount":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait=1 status %d, want 200", resp.StatusCode)
	}
	ep := decodeBody(t, resp)
	if ep["fallback"] != true || ep["solved"] == true {
		t.Fatalf("epoch should be a deadline fallback: %v", ep)
	}

	if n := scrape(t, url+"/metrics")["sparseroute_engine_solves_canceled"]; n < 1 {
		t.Fatalf("solves_canceled=%v, want >= 1", n)
	}
}

// TestDaemonOverloadFlags pins the flag wiring of the overload protection
// end to end — parseFlags → openEngine → serve: with a one-token tenant
// bucket the second back-to-back submit is shed with 429 and a positive
// Retry-After, a body over -max-body gets 413, and reads keep answering.
func TestDaemonOverloadFlags(t *testing.T) {
	dir := t.TempDir()
	topo := filepath.Join(dir, "topo.json")
	f, err := os.Create(topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.EncodeGraph(f, gen.Hypercube(3)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	o, err := parseFlags([]string{"-topo", topo, "-router", "spf", "-s", "2",
		"-tenant-qps", "0.01", "-tenant-burst", "1", "-max-body", "256"})
	if err != nil {
		t.Fatal(err)
	}
	url, stop := startDaemon(t, o)
	defer stop()

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(url+"/v1/demand?wait=1", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	const epoch = `{"entries":[{"u":0,"v":7,"amount":1}]}`
	if resp := post(epoch); resp.StatusCode != http.StatusOK {
		t.Fatalf("first submit status %d, want 200", resp.StatusCode)
	}
	resp := post(epoch)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second back-to-back submit status %d, want 429", resp.StatusCode)
	}
	if after, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || after <= 0 {
		t.Fatalf("429 Retry-After %q, want a positive number of seconds", resp.Header.Get("Retry-After"))
	}
	big := `{"entries":[` + strings.Repeat(`{"u":0,"v":7,"amount":1},`, 20) + `{"u":1,"v":6,"amount":1}]}`
	if resp := post(big); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-byte body under -max-body 256: status %d, want 413", len(big), resp.StatusCode)
	}
	get, err := http.Get(url + "/v1/routing")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/routing status %d while mutations shed, want 200", get.StatusCode)
	}
}

// TestDaemonCapacityDrill is the capacity-degradation acceptance test: on a
// diamond (two disjoint 2-hop routes between 0 and 3) a brownout to 50% on one
// route must strictly worsen the published congestion without pruning any
// path, /healthz must report degraded with the override list and no failed
// edges, a snapshot taken mid-brownout must carry the override across a
// restart, and recovering to full capacity must return the daemon to ok with
// the startup hash intact.
func TestDaemonCapacityDrill(t *testing.T) {
	dir := t.TempDir()
	topo := filepath.Join(dir, "topo.json")
	snap := filepath.Join(dir, "system.snapshot")

	// Diamond: 0-1-3 and 0-2-3, all unit edges. Demand 2 over (0,3) splits
	// evenly for congestion 1; with the 0-1 edge at half capacity the optimum
	// moves to a 2/3 vs 4/3 split for congestion 4/3.
	g := gen.Hypercube(2) // 4-cycle 0-1-3-2-0: exactly the diamond above.
	f, err := os.Create(topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.EncodeGraph(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()

	o, err := parseFlags([]string{
		"-topo", topo, "-router", "ksp", "-k", "2", "-s", "6", "-seed", "7",
		"-workers", "2", "-snapshot", snap,
	})
	if err != nil {
		t.Fatal(err)
	}
	url, stop := startDaemon(t, o)

	// The drill needs both (0,3) routes in the sample; k=2 over a 4-cycle
	// offers exactly the two disjoint ones and s=6 draws make both near-certain
	// (and deterministic for the fixed seed).
	resp, err := http.Get(url + "/v1/paths?src=0&dst=3")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(decodeBody(t, resp)["paths"].([]any)); n != 2 {
		t.Fatalf("sample holds %d unique (0,3) paths, drill needs 2", n)
	}

	// Baseline congestion at full capacity.
	demand := `{"entries":[{"u":0,"v":3,"amount":2}]}`
	resp, err = http.Post(url+"/v1/demand?wait=1", "application/json", strings.NewReader(demand))
	if err != nil {
		t.Fatal(err)
	}
	ep := decodeBody(t, resp)
	if ep["solved"] != true {
		t.Fatalf("baseline epoch not solved: %v", ep)
	}
	baseline := ep["congestion"].(float64)
	if baseline > 1.01 {
		t.Fatalf("baseline congestion %v, want ~1", baseline)
	}
	hash0, _ := pathSystemHashFromMetrics(t, url)

	// Find the edge 0-1 by endpoints rather than assuming generator ID order.
	weak := -1
	for id, e := range g.Edges() {
		if (e.U == 0 && e.V == 1) || (e.U == 1 && e.V == 0) {
			weak = id
		}
	}
	if weak < 0 {
		t.Fatal("no 0-1 edge in the 4-cycle")
	}

	// Brownout: half the capacity of one route's first hop.
	resp, err = http.Post(url+"/v1/links", "application/json",
		strings.NewReader(fmt.Sprintf(`{"edge":%d,"capacity":0.5}`, weak)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("capacity event status %d", resp.StatusCode)
	}
	link := decodeBody(t, resp)
	if link["status"] != "degraded" {
		t.Fatalf("capacity event: %v", link)
	}
	if fe, ok := link["failed_edges"].([]any); ok && len(fe) != 0 {
		t.Fatalf("brownout must not report failed edges: %v", link)
	}
	deg := link["degraded_edges"].([]any)[0].(map[string]any)
	if deg["edge"].(float64) != float64(weak) || deg["capacity"].(float64) != 0.5 {
		t.Fatalf("degraded_edges: %v", link["degraded_edges"])
	}

	// No pruning, no resample: both paths still installed, hash unchanged.
	resp, err = http.Get(url + "/v1/paths?src=0&dst=3")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(decodeBody(t, resp)["paths"].([]any)); n != 2 {
		t.Fatalf("brownout pruned paths: %d left", n)
	}
	if h, _ := pathSystemHashFromMetrics(t, url); h != hash0 {
		t.Fatalf("brownout changed the installed system: %s != %s", h, hash0)
	}

	// Same demand is strictly worse against the reduced capacity.
	resp, err = http.Post(url+"/v1/demand?wait=1", "application/json", strings.NewReader(demand))
	if err != nil {
		t.Fatal(err)
	}
	ep = decodeBody(t, resp)
	if ep["solved"] != true {
		t.Fatalf("brownout epoch not solved: %v", ep)
	}
	if c := ep["congestion"].(float64); c <= baseline+0.01 || c < 1.3 || c > 1.37 {
		t.Fatalf("brownout congestion %v, want ~4/3 (> baseline %v)", c, baseline)
	}

	// /healthz: degraded with the override listed, no failures.
	resp, err = http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded healthz status %d (must keep serving)", resp.StatusCode)
	}
	h := decodeBody(t, resp)
	if h["status"] != "degraded" {
		t.Fatalf("healthz: %v", h)
	}
	if fe, ok := h["failed_edges"].([]any); ok && len(fe) != 0 {
		t.Fatalf("healthz lists failed edges during a brownout: %v", h)
	}
	if len(h["degraded_edges"].([]any)) != 1 {
		t.Fatalf("healthz degraded_edges: %v", h)
	}

	// Snapshot mid-brownout, kill, and check the override is on disk.
	resp, err = http.Post(url+"/v1/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp)
	stop()

	sf, err := os.Open(snap)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := serial.DecodeSnapshot(sf)
	sf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(sd.FailedEdges) != 0 {
		t.Fatalf("snapshot failed edges %v, want none", sd.FailedEdges)
	}
	if len(sd.Capacities) != 1 || sd.Capacities[weak] != 0.5 {
		t.Fatalf("snapshot capacities %v, want {%d: 0.5}", sd.Capacities, weak)
	}

	// Restart from the snapshot alone: same system, still degraded.
	if err := os.Remove(topo); err != nil {
		t.Fatal(err)
	}
	url2, stop2 := startDaemon(t, o)
	defer stop2()
	if h2, _ := pathSystemHashFromMetrics(t, url2); h2 != hash0 {
		t.Fatalf("restored hash %s != original %s", h2, hash0)
	}
	resp, err = http.Get(url2 + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if h := decodeBody(t, resp); h["status"] != "degraded" {
		t.Fatalf("restored healthz: %v", h)
	}

	// Recover to full capacity: ok, original hash, baseline congestion.
	resp, err = http.Post(url2+"/v1/links", "application/json",
		strings.NewReader(fmt.Sprintf(`{"edge":%d,"capacity":1}`, weak)))
	if err != nil {
		t.Fatal(err)
	}
	if link := decodeBody(t, resp); link["status"] != "ok" {
		t.Fatalf("recovery event: %v", link)
	}
	resp, err = http.Get(url2 + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if h := decodeBody(t, resp); h["status"] != "ok" {
		t.Fatalf("healthz after recovery: %v", h)
	}
	if h2, _ := pathSystemHashFromMetrics(t, url2); h2 != hash0 {
		t.Fatalf("recovery changed the installed system: %s != %s", h2, hash0)
	}
	resp, err = http.Post(url2+"/v1/demand?wait=1", "application/json", strings.NewReader(demand))
	if err != nil {
		t.Fatal(err)
	}
	ep = decodeBody(t, resp)
	if ep["solved"] != true {
		t.Fatalf("post-recovery epoch not solved: %v", ep)
	}
	if c := ep["congestion"].(float64); c > 1.01 {
		t.Fatalf("post-recovery congestion %v, want ~1", c)
	}
}

// TestDaemonFailureDrill is the link-failure acceptance test: serve a
// hypercube, drive demand, fail edges mid-traffic via POST /v1/links, and
// check the degraded-mode contract — every still-connected pair stays routed
// off the dead edges, /healthz reports degraded with the failed-edge list,
// a snapshot taken while degraded restores to the identical failed-edge set
// and path-system hash, and a restore event returns the daemon to ok.
func TestDaemonFailureDrill(t *testing.T) {
	dir := t.TempDir()
	topo := filepath.Join(dir, "topo.json")
	snap := filepath.Join(dir, "system.snapshot")

	f, err := os.Create(topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.EncodeGraph(f, gen.Hypercube(3)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	o, err := parseFlags([]string{
		"-topo", topo, "-router", "valiant", "-s", "3", "-seed", "17",
		"-workers", "2", "-snapshot", snap,
	})
	if err != nil {
		t.Fatal(err)
	}
	url, stop := startDaemon(t, o)

	// Traffic before the failure.
	resp, err := http.Post(url+"/v1/demand?wait=1", "application/json",
		strings.NewReader(`{"entries":[{"u":0,"v":7,"amount":2},{"u":1,"v":6,"amount":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if ep := decodeBody(t, resp); ep["solved"] != true {
		t.Fatalf("pre-failure epoch not solved: %v", ep)
	}

	// Fail two edges mid-traffic. A 3-cube is 3-edge-connected, so every
	// pair stays connected and must stay routed.
	resp, err = http.Post(url+"/v1/links", "application/json",
		strings.NewReader(`{"fail":[0,5]}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("link event status %d", resp.StatusCode)
	}
	link := decodeBody(t, resp)
	if link["status"] != "degraded" || link["uncovered_pairs"].(float64) != 0 {
		t.Fatalf("link event: %v", link)
	}

	// /healthz reports degraded with the failed-edge list.
	resp, err = http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded healthz status %d (must keep serving)", resp.StatusCode)
	}
	h := decodeBody(t, resp)
	if h["status"] != "degraded" {
		t.Fatalf("healthz: %v", h)
	}
	edges := h["failed_edges"].([]any)
	if len(edges) != 2 || edges[0].(float64) != 0 || edges[1].(float64) != 5 {
		t.Fatalf("healthz failed_edges: %v", edges)
	}

	// Demand during the failure: solved, and no served path touches a dead
	// edge. /v1/routing exposes the full routing with edge IDs.
	resp, err = http.Post(url+"/v1/demand?wait=1", "application/json",
		strings.NewReader(`{"entries":[{"u":0,"v":7,"amount":2},{"u":2,"v":5,"amount":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if ep := decodeBody(t, resp); ep["solved"] != true {
		t.Fatalf("mid-failure epoch not solved: %v", ep)
	}
	resp, err = http.Get(url + "/v1/routing")
	if err != nil {
		t.Fatal(err)
	}
	routing := decodeBody(t, resp)["routing"].(map[string]any)
	for _, pr := range routing["pairs"].([]any) {
		for _, p := range pr.(map[string]any)["paths"].([]any) {
			for _, id := range p.(map[string]any)["edges"].([]any) {
				if id.(float64) == 0 || id.(float64) == 5 {
					t.Fatalf("mid-failure routing rides failed edge %v: %v", id, pr)
				}
			}
		}
	}

	// Snapshot while degraded, remember the hash, kill the daemon.
	hashDegraded, _ := pathSystemHashFromMetrics(t, url)
	resp, err = http.Post(url+"/v1/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := decodeBody(t, resp); s["hash"] != hashDegraded {
		t.Fatalf("snapshot hash %v != metrics hash %v", s["hash"], hashDegraded)
	}
	stop()

	// The on-disk snapshot carries the failed-edge set.
	sf, err := os.Open(snap)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := serial.DecodeSnapshot(sf)
	sf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(sd.FailedEdges) != 2 || sd.FailedEdges[0] != 0 || sd.FailedEdges[1] != 5 {
		t.Fatalf("snapshot failed edges %v, want [0 5]", sd.FailedEdges)
	}

	// Restart from the degraded snapshot: identical hash, identical failed
	// set, still reporting degraded.
	if err := os.Remove(topo); err != nil {
		t.Fatal(err)
	}
	url2, stop2 := startDaemon(t, o)
	defer stop2()
	hash2, _ := pathSystemHashFromMetrics(t, url2)
	if hash2 != hashDegraded {
		t.Fatalf("restored hash %s != degraded original %s", hash2, hashDegraded)
	}
	resp, err = http.Get(url2 + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h = decodeBody(t, resp)
	if h["status"] != "degraded" {
		t.Fatalf("restored healthz: %v", h)
	}

	// Restore the links: health returns to ok and traffic flows.
	resp, err = http.Post(url2+"/v1/links", "application/json",
		strings.NewReader(`{"restore":[0,5]}`))
	if err != nil {
		t.Fatal(err)
	}
	if link := decodeBody(t, resp); link["status"] != "ok" {
		t.Fatalf("restore event: %v", link)
	}
	resp, err = http.Get(url2 + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if h := decodeBody(t, resp); h["status"] != "ok" {
		t.Fatalf("healthz after restore: %v", h)
	}
	resp, err = http.Post(url2+"/v1/demand?wait=1", "application/json",
		strings.NewReader(`{"entries":[{"u":3,"v":4,"amount":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if ep := decodeBody(t, resp); ep["solved"] != true {
		t.Fatalf("post-restore epoch not solved: %v", ep)
	}
}
