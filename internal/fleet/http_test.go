package fleet

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"sparseroute/internal/graph/gen"
	"sparseroute/internal/obs"
	"sparseroute/internal/service"
)

func testHTTPFleet(t *testing.T, ids []string, mut func(*Config)) (*Fleet, *httptest.Server) {
	t.Helper()
	f := testFleet(t, ids, mut)
	ts := httptest.NewServer(NewServer(f))
	t.Cleanup(ts.Close)
	return f, ts
}

func do(t *testing.T, method, url, body string) (int, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var out map[string]any
	if len(raw) > 0 && raw[0] == '{' {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("bad JSON %q: %v", raw, err)
		}
	}
	return resp.StatusCode, out
}

// scrape GETs a /metrics endpoint, checks that it is valid exposition, and
// returns its samples keyed by series, labels included:
// `sparseroute_engine_epochs_solved{topo="a"}`.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	code, raw := get(t, url)
	if code != http.StatusOK {
		t.Fatalf("%s: %d %s", url, code, raw)
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

func get(t *testing.T, url string) (int, []byte) {
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
	return resp.StatusCode, raw
}

func TestFleetHTTPNamespacedRoutes(t *testing.T) {
	_, ts := testHTTPFleet(t, []string{"east", "west"}, nil)

	// Demand on east, synchronously.
	code, resp := do(t, "POST", ts.URL+"/v1/t/east/demand?wait=1",
		`{"entries":[{"u":0,"v":7,"amount":2}]}`)
	if code != http.StatusOK || resp["solved"] != true {
		t.Fatalf("east demand: %d %v", code, resp)
	}

	// East serves paths with live rates; west is independent — first touch
	// cold-starts it with a zero epoch.
	code, paths := do(t, "GET", ts.URL+"/v1/t/east/paths?src=0&dst=7", "")
	if code != http.StatusOK || paths["epoch"].(float64) != 1 {
		t.Fatalf("east paths: %d %v", code, paths)
	}
	code, paths = do(t, "GET", ts.URL+"/v1/t/west/paths?src=0&dst=7", "")
	if code != http.StatusOK || paths["epoch"].(float64) != 0 {
		t.Fatalf("west paths: %d %v", code, paths)
	}

	// Per-shard routing, links, health.
	if code, _ := do(t, "GET", ts.URL+"/v1/t/east/routing", ""); code != http.StatusOK {
		t.Fatalf("east routing: %d", code)
	}
	code, links := do(t, "GET", ts.URL+"/v1/t/east/links", "")
	if code != http.StatusOK || links["version"].(float64) != 1 {
		t.Fatalf("east links: %d %v", code, links)
	}
	code, health := do(t, "GET", ts.URL+"/v1/t/east/healthz", "")
	if code != http.StatusOK || health["status"] != service.HealthOK {
		t.Fatalf("east healthz: %d %v", code, health)
	}

	// Per-shard snapshot persists to the shard's snapshot file.
	code, snap := do(t, "POST", ts.URL+"/v1/t/east/snapshot", "")
	if code != http.StatusOK || snap["bytes"].(float64) <= 0 {
		t.Fatalf("east snapshot: %d %v", code, snap)
	}
	if !strings.HasSuffix(snap["path"].(string), "east"+snapshotSuffix) {
		t.Fatalf("snapshot path %v", snap["path"])
	}
}

func TestFleetHTTPUnknownTopologyIs404(t *testing.T) {
	_, ts := testHTTPFleet(t, []string{"east", "west"}, nil)
	for _, probe := range []struct{ method, path, body string }{
		{"GET", "/v1/t/nope/paths?src=0&dst=7", ""},
		{"POST", "/v1/t/nope/demand", `{"entries":[]}`},
		{"GET", "/v1/t/nope/healthz", ""},
	} {
		code, resp := do(t, probe.method, ts.URL+probe.path, probe.body)
		if code != http.StatusNotFound {
			t.Fatalf("%s %s: %d %v, want 404", probe.method, probe.path, code, resp)
		}
		if resp["error"] == nil || !strings.Contains(resp["error"].(string), "nope") {
			t.Fatalf("%s %s error %v does not name the topology", probe.method, probe.path, resp["error"])
		}
	}
}

func TestFleetHTTPLegacyAlias(t *testing.T) {
	// Single shard: the legacy surface aliases to it automatically.
	_, ts := testHTTPFleet(t, []string{"solo"}, nil)
	code, resp := do(t, "POST", ts.URL+"/v1/demand?wait=1",
		`{"entries":[{"u":0,"v":7,"amount":1}]}`)
	if code != http.StatusOK || resp["solved"] != true {
		t.Fatalf("legacy demand: %d %v", code, resp)
	}
	if code, _ := do(t, "GET", ts.URL+"/v1/paths?src=0&dst=7", ""); code != http.StatusOK {
		t.Fatalf("legacy paths: %d", code)
	}
	// The namespaced route reaches the same engine.
	code, paths := do(t, "GET", ts.URL+"/v1/t/solo/paths?src=0&dst=7", "")
	if code != http.StatusOK || paths["epoch"].(float64) != 1 {
		t.Fatalf("namespaced view of default shard: %d %v", code, paths)
	}
}

func TestFleetHTTPLegacyWithoutDefaultIs404(t *testing.T) {
	_, ts := testHTTPFleet(t, []string{"east", "west"}, nil)
	code, resp := do(t, "GET", ts.URL+"/v1/paths?src=0&dst=7", "")
	if code != http.StatusNotFound {
		t.Fatalf("legacy without default: %d %v, want 404", code, resp)
	}
	if !strings.Contains(resp["error"].(string), "/v1/t/") {
		t.Fatalf("error %v should point at the namespaced surface", resp["error"])
	}
}

func TestFleetHTTPExplicitDefault(t *testing.T) {
	_, ts := testHTTPFleet(t, []string{"east", "west"}, func(c *Config) {
		c.DefaultShard = "west"
	})
	code, resp := do(t, "POST", ts.URL+"/v1/demand?wait=1",
		`{"entries":[{"u":0,"v":7,"amount":1}]}`)
	if code != http.StatusOK || resp["solved"] != true {
		t.Fatalf("legacy demand on explicit default: %d %v", code, resp)
	}
	code, paths := do(t, "GET", ts.URL+"/v1/t/west/paths?src=0&dst=7", "")
	if code != http.StatusOK || paths["epoch"].(float64) != 1 {
		t.Fatalf("west should carry the legacy epoch: %d %v", code, paths)
	}
	code, paths = do(t, "GET", ts.URL+"/v1/t/east/paths?src=0&dst=7", "")
	if code != http.StatusOK || paths["epoch"].(float64) != 0 {
		t.Fatalf("east should be untouched: %d %v", code, paths)
	}
}

func TestFleetHTTPTopologiesAndVars(t *testing.T) {
	_, ts := testHTTPFleet(t, []string{"a", "b"}, func(c *Config) { c.DefaultShard = "a" })
	if code, _ := do(t, "POST", ts.URL+"/v1/t/a/demand?wait=1",
		`{"entries":[{"u":0,"v":7,"amount":1}]}`); code != http.StatusOK {
		t.Fatalf("demand: %d", code)
	}

	resp, err := http.Get(ts.URL + "/v1/topologies")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var topos []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&topos); err != nil {
		t.Fatal(err)
	}
	if len(topos) != 2 || topos[0]["id"] != "a" || topos[1]["id"] != "b" {
		t.Fatalf("topologies %v", topos)
	}
	if topos[0]["resident"] != true || topos[0]["default"] != true {
		t.Fatalf("shard a row %v", topos[0])
	}
	if topos[1]["resident"] == true {
		t.Fatalf("shard b row %v should be cold", topos[1])
	}

	// The rollup renders fleet counters and every resident shard's registry.
	m := scrape(t, ts.URL+"/metrics")
	if m["sparseroute_fleet_resident_shards"] != 1 || m["sparseroute_fleet_cold_starts"] != 1 {
		t.Fatalf("fleet resident_shards=%v cold_starts=%v, want 1 and 1",
			m["sparseroute_fleet_resident_shards"], m["sparseroute_fleet_cold_starts"])
	}
	if got := m[`sparseroute_engine_epochs_solved{topo="a"}`]; got != 1 {
		t.Fatalf("shard a epochs_solved=%v, want 1", got)
	}
	if got, ok := m[`sparseroute_shard_resident{topo="b"}`]; !ok || got != 0 {
		t.Fatalf("shard b resident=%v (present %v), want 0", got, ok)
	}
	if _, ok := m[`sparseroute_engine_epochs_solved{topo="b"}`]; ok {
		t.Fatal("non-resident shard b renders engine series")
	}
	// /metrics is the one metrics surface: the JSON rendering is gone from
	// the fleet, the namespaced shard and the legacy alias.
	for _, path := range []string{"/debug/vars", "/v1/t/a/debug/vars", "/v1/debug/vars"} {
		if code, _ := get(t, ts.URL+path); code != http.StatusNotFound {
			t.Fatalf("GET %s: %d, want 404", path, code)
		}
	}
}

func TestFleetHTTPHealthRollup(t *testing.T) {
	f, ts := testHTTPFleet(t, []string{"a", "b"}, nil)
	code, h := do(t, "GET", ts.URL+"/healthz", "")
	if code != http.StatusOK || h["status"] != service.HealthOK {
		t.Fatalf("healthz: %d %v", code, h)
	}

	// Degrade a via the namespaced links route: the rollup follows.
	edge := gen.Hypercube(3).Incident(0)[0]
	code, links := do(t, "POST", ts.URL+"/v1/t/a/links",
		`{"fail":[`+jsonInt(edge)+`]}`)
	if code != http.StatusOK || links["status"] != service.HealthDegraded {
		t.Fatalf("links: %d %v", code, links)
	}
	code, h = do(t, "GET", ts.URL+"/healthz", "")
	if code != http.StatusOK || h["status"] != service.HealthDegraded {
		t.Fatalf("healthz after failure: %d %v", code, h)
	}

	// Close: the surface answers 503 everywhere.
	f.Close()
	if code, _ := do(t, "GET", ts.URL+"/healthz", ""); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after close: %d, want 503", code)
	}
	if code, _ := do(t, "GET", ts.URL+"/v1/t/a/paths?src=0&dst=7", ""); code != http.StatusServiceUnavailable {
		t.Fatalf("shard route after close: %d, want 503", code)
	}
}

func jsonInt(v int) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestFleetHTTPPatchDemand pins that PATCH /v1/demand rides the generic
// shard delegation on both surfaces: namespaced and legacy, with the 409
// before-base contract intact per shard.
func TestFleetHTTPPatchDemand(t *testing.T) {
	_, ts := testHTTPFleet(t, []string{"east", "west"}, nil)

	// PATCH before any base matrix on east: 409 from that shard's engine.
	code, resp := do(t, "PATCH", ts.URL+"/v1/t/east/demand?wait=1",
		`{"set":[{"u":0,"v":7,"amount":2}]}`)
	if code != http.StatusConflict {
		t.Fatalf("east patch before base: %d %v, want 409", code, resp)
	}

	code, resp = do(t, "POST", ts.URL+"/v1/t/east/demand?wait=1",
		`{"entries":[{"u":0,"v":7,"amount":2}]}`)
	if code != http.StatusOK || resp["solved"] != true {
		t.Fatalf("east base: %d %v", code, resp)
	}
	code, resp = do(t, "PATCH", ts.URL+"/v1/t/east/demand?wait=1",
		`{"set":[{"u":0,"v":7,"amount":2.02}]}`)
	if code != http.StatusOK || resp["solved"] != true {
		t.Fatalf("east patch: %d %v", code, resp)
	}
	if warm, _ := resp["warm"].(string); warm != "delta" {
		t.Fatalf("east patch warm tag %q, want delta", warm)
	}

	// West never saw a base: its PATCH state is independent of east's.
	code, resp = do(t, "PATCH", ts.URL+"/v1/t/west/demand?wait=1",
		`{"set":[{"u":0,"v":7,"amount":1}]}`)
	if code != http.StatusConflict {
		t.Fatalf("west patch before base: %d %v, want 409", code, resp)
	}
}

// TestFleetHTTPPatchLegacyAlias: the legacy PATCH reaches the default shard.
func TestFleetHTTPPatchLegacyAlias(t *testing.T) {
	_, ts := testHTTPFleet(t, []string{"solo"}, nil)
	code, resp := do(t, "POST", ts.URL+"/v1/demand?wait=1",
		`{"entries":[{"u":0,"v":7,"amount":1}]}`)
	if code != http.StatusOK || resp["solved"] != true {
		t.Fatalf("legacy base: %d %v", code, resp)
	}
	code, resp = do(t, "PATCH", ts.URL+"/v1/demand?wait=1",
		`{"set":[{"u":3,"v":4,"amount":1}]}`)
	if code != http.StatusOK || resp["solved"] != true {
		t.Fatalf("legacy patch: %d %v", code, resp)
	}
}
