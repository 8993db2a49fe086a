package fleet

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"sparseroute/internal/obs"
)

func shardEvents(events []obs.Event, shard, typ string) []obs.Event {
	var out []obs.Event
	for _, ev := range events {
		if ev.Shard == shard && ev.Type == typ {
			out = append(out, ev)
		}
	}
	return out
}

// TestFleetJournalSurvivesEviction drives a link failure on shard a, evicts
// it by touching shard b under MaxResident 1, and asserts the fleet journal
// still carries a's whole story — the link event, both health transitions,
// and the residency churn — even though a's engine left memory.
func TestFleetJournalSurvivesEviction(t *testing.T) {
	f := testFleet(t, []string{"a", "b"}, func(c *Config) { c.MaxResident = 1 })

	ea, err := f.Engine("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ea.FailEdges(0); err != nil {
		t.Fatal(err)
	}
	if _, err := ea.RestoreEdges(0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Engine("b"); err != nil { // evicts a
		t.Fatal(err)
	}
	if f.resident() != 1 {
		t.Fatalf("resident=%d, want 1", f.resident())
	}

	events := f.Events()
	if got := len(shardEvents(events, "a", obs.EventLink)); got != 2 {
		t.Fatalf("link events for a: %d, want 2", got)
	}
	health := shardEvents(events, "a", obs.EventHealth)
	// fail -> degraded, restore -> ok, eviction Close -> closed.
	if len(health) != 3 {
		t.Fatalf("health events for a: %d, want 3 (%v)", len(health), health)
	}
	if health[0].Detail["to"] != "degraded" || health[1].Detail["to"] != "ok" || health[2].Detail["to"] != "closed" {
		t.Fatalf("health sequence %v", health)
	}
	if got := len(shardEvents(events, "a", obs.EventEviction)); got != 1 {
		t.Fatalf("eviction events for a: %d, want 1", got)
	}
	if got := len(shardEvents(events, "a", obs.EventReload)); got != 1 {
		t.Fatalf("reload events for a: %d, want 1", got)
	}
	if got := len(shardEvents(events, "b", obs.EventReload)); got != 1 {
		t.Fatalf("reload events for b: %d, want 1", got)
	}
	var seq uint64
	for _, ev := range events {
		if ev.Seq <= seq {
			t.Fatalf("journal out of order: %d after %d", ev.Seq, seq)
		}
		seq = ev.Seq
	}
}

func TestFleetPromRollup(t *testing.T) {
	f, ts := testHTTPFleet(t, []string{"a", "b"}, nil)
	solveOn(t, f, "a")

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("/metrics content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(raw); err != nil {
		t.Fatalf("/metrics is not valid exposition: %v\n%s", err, raw)
	}
	body := string(raw)
	for _, want := range []string{
		"sparseroute_fleet_cold_starts 1",
		`sparseroute_engine_epochs_solved{topo="a"} 1`,
		`sparseroute_shard_resident{topo="a"} 1`,
		`sparseroute_shard_resident{topo="b"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	// The cold shard contributes no engine series.
	if strings.Contains(body, `sparseroute_engine_epochs_received{topo="b"}`) {
		t.Fatalf("cold shard b leaked engine series:\n%s", body)
	}
}

func TestFleetShardMetricsDelegated(t *testing.T) {
	f, ts := testHTTPFleet(t, []string{"a"}, nil)
	solveOn(t, f, "a")
	resp, err := http.Get(ts.URL + "/v1/t/a/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/t/a/metrics status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(raw); err != nil {
		t.Fatalf("shard /metrics is not valid exposition: %v\n%s", err, raw)
	}
	if !strings.Contains(string(raw), "sparseroute_engine_epochs_solved 1") {
		t.Fatalf("shard /metrics missing engine series:\n%s", raw)
	}
}

func TestFleetShardEventsDelegated(t *testing.T) {
	f, ts := testHTTPFleet(t, []string{"a", "b"}, nil)
	ea, err := f.Engine("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ea.FailEdges(0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Engine("b"); err != nil {
		t.Fatal(err)
	}
	// The shard-scoped view filters to a's events only.
	code, body := do(t, "GET", ts.URL+"/v1/t/a/debug/events", "")
	if code != http.StatusOK {
		t.Fatalf("/v1/t/a/debug/events status %d", code)
	}
	events, _ := body["events"].([]any)
	if len(events) == 0 {
		t.Fatal("no events for shard a")
	}
	for _, raw := range events {
		ev, _ := raw.(map[string]any)
		if ev["shard"] != "a" {
			t.Fatalf("shard-scoped events leaked %v", ev)
		}
	}
	// The fleet-wide view carries both shards.
	code, body = do(t, "GET", ts.URL+"/debug/events", "")
	if code != http.StatusOK {
		t.Fatalf("/debug/events status %d", code)
	}
	events, _ = body["events"].([]any)
	shards := map[any]bool{}
	for _, raw := range events {
		ev, _ := raw.(map[string]any)
		shards[ev["shard"]] = true
	}
	if !shards["a"] || !shards["b"] {
		t.Fatalf("fleet events cover shards %v, want both a and b", shards)
	}
}

// TestFleetScrapeDuringChurn hammers every observability surface — the
// Prometheus rollup, health, events — while shards churn through
// residency under MaxResident 1. The race detector and the absence of 500s
// are the assertions: a scrape must never observe a half-evicted shard.
func TestFleetScrapeDuringChurn(t *testing.T) {
	f, ts := testHTTPFleet(t, []string{"a", "b"}, func(c *Config) { c.MaxResident = 1 })

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, url := range []string{
		ts.URL + "/metrics",
		ts.URL + "/healthz",
		ts.URL + "/debug/events",
	} {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(url)
				if err != nil {
					t.Errorf("GET %s: %v", url, err)
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s: status %d body %s", url, resp.StatusCode, raw)
					return
				}
				if strings.HasSuffix(url, "/metrics") {
					if err := obs.ValidateExposition(raw); err != nil {
						t.Errorf("GET %s: invalid exposition mid-churn: %v", url, err)
						return
					}
				}
			}
		}(url)
	}

	// Alternate residency between the two shards: every switch snapshots and
	// evicts the other, exactly the window the scrapes must survive.
	for i := 0; i < 10; i++ {
		solveOn(t, f, "a")
		solveOn(t, f, "b")
	}
	close(stop)
	wg.Wait()
}
