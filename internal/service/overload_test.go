package service

import (
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestServerMaxBodyRejects413(t *testing.T) {
	_, e, ts := testServer(t, Config{Seed: 1, MaxBodyBytes: 256}, "")
	big := `{"entries":[` + strings.Repeat(`{"u":0,"v":7,"amount":1},`, 64) + `{"u":1,"v":6,"amount":1}]}`
	code, body := postJSON(t, ts.URL+"/v1/demand", big)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d body %v, want 413", code, body)
	}
	if got := e.Metrics().bodyTooLarge.Value(); got != 1 {
		t.Fatalf("body_too_large=%d, want 1", got)
	}
	// Links are body-capped by the same flag.
	code, _ = postJSON(t, ts.URL+"/v1/links", `{"fail":[`+strings.Repeat("0,", 200)+`0]}`)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("links status %d, want 413", code)
	}
	// A small body still lands.
	code, _ = postJSON(t, ts.URL+"/v1/demand", `{"entries":[{"u":0,"v":7,"amount":1}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("small body status %d, want 202", code)
	}
}

func TestServerRateLimit429CarriesRetryAfter(t *testing.T) {
	_, e, ts := testServer(t, Config{Seed: 1, MutationRate: 1.0 / 60, MutationBurst: 1}, "")
	body := `{"entries":[{"u":0,"v":7,"amount":1}]}`
	code, _ := postJSON(t, ts.URL+"/v1/demand", body)
	if code != http.StatusAccepted {
		t.Fatalf("first submit status %d, want 202", code)
	}
	resp, err := http.Post(ts.URL+"/v1/demand", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After %q, want a positive whole-second hint", ra)
	}
	if got := e.Metrics().rateLimited.Value(); got != 1 {
		t.Fatalf("rate_limited=%d, want 1", got)
	}
	// The Prometheus surface exports the new counters.
	prom, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer prom.Body.Close()
	text, _ := io.ReadAll(prom.Body)
	for _, metric := range []string{"sparseroute_engine_shed_requests", "sparseroute_engine_rate_limited", "sparseroute_engine_breaker_state"} {
		if !strings.Contains(string(text), metric) {
			t.Fatalf("/metrics missing %s", metric)
		}
	}
}

func TestServerInflightBudget429(t *testing.T) {
	_, e, ts := testServer(t, Config{Seed: 1, MaxInflightBytes: 64}, "")
	// Pin the budget down with a fake admitted body, then submit: the
	// Content-Length of the real request cannot fit and must shed.
	e.inflight.acquire(60)
	defer e.inflight.release(60)
	resp, err := http.Post(ts.URL+"/v1/demand", "application/json",
		strings.NewReader(`{"entries":[{"u":0,"v":7,"amount":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("inflight shed without Retry-After")
	}
	if got := e.Metrics().inflightRejects.Value(); got != 1 {
		t.Fatalf("inflight_rejects=%d, want 1", got)
	}
}

func TestServerDeadlineQueryValidation(t *testing.T) {
	_, _, ts := testServer(t, Config{Seed: 1}, "")
	code, body := postJSON(t, ts.URL+"/v1/demand?deadline=banana", `{"entries":[{"u":0,"v":7,"amount":1}]}`)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d body %v, want 400 for a malformed deadline", code, body)
	}
	code, _ = postJSON(t, ts.URL+"/v1/demand?deadline=-1s", `{"entries":[{"u":0,"v":7,"amount":1}]}`)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 for a negative deadline", code)
	}
	code, _ = postJSON(t, ts.URL+"/v1/demand?deadline=5s", `{"entries":[{"u":0,"v":7,"amount":1}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("status %d, want 202 with a valid deadline", code)
	}
}

// TestServerOverloadDrill is the 2x-capacity sustained overload drill, run
// in CI's race tier: an engine with a tight mutation quota takes twice what
// it can admit while readers hammer
// GET /v1/routing and a chaos goroutine cycles link failures, brownouts,
// and restores. The drill asserts the overload contract:
//
//   - reads never see a 5xx and never block behind the mutation storm;
//   - every mutation is accounted for: accepted, shed (429, with
//     Retry-After), or busy (503 with Retry-After: the breaker, the only
//     server-side shed — an admitted mutation is never dropped, at most
//     superseded in the epoch slot);
//   - the server's own shed counters agree with the client's view;
//   - link chaos keeps working while mutations shed (the repair path is
//     never admission-gated).
func TestServerOverloadDrill(t *testing.T) {
	_, e, ts := testServer(t, Config{
		Seed:             1,
		MutationRate:     50,
		MutationBurst:    5,
		MaxInflightBytes: 1 << 20,
	}, "")

	// Seed one epoch so readers always have a routing.
	code, _ := postJSON(t, ts.URL+"/v1/demand?wait=1", `{"entries":[{"u":0,"v":7,"amount":2},{"u":1,"v":6,"amount":1}]}`)
	if code != http.StatusOK {
		t.Fatalf("seed epoch status %d", code)
	}

	const (
		senders  = 4
		duration = 1500 * time.Millisecond
	)
	var (
		accepted, shed, busy, other atomic.Int64
		readErrs, reads             atomic.Int64
		stop                        = make(chan struct{})
		wg                          sync.WaitGroup
	)
	time.AfterFunc(duration, func() { close(stop) })

	// Senders: ~2x the 50/s quota between them, closed loop.
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			rng := rand.New(rand.NewPCG(7, uint64(id)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				u := rng.IntN(4)
				body := fmt.Sprintf(`{"entries":[{"u":%d,"v":%d,"amount":%d}]}`, u, 7-u, 1+rng.IntN(3))
				resp, err := client.Post(ts.URL+"/v1/demand?deadline=2s", "application/json", strings.NewReader(body))
				if err != nil {
					other.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusAccepted, http.StatusOK:
					accepted.Add(1)
				case http.StatusTooManyRequests:
					if resp.Header.Get("Retry-After") == "" {
						t.Error("429 without Retry-After")
					}
					shed.Add(1)
				case http.StatusServiceUnavailable:
					if resp.Header.Get("Retry-After") == "" {
						t.Error("503 without Retry-After")
					}
					busy.Add(1)
				default:
					t.Errorf("unexpected mutation status %d", resp.StatusCode)
					other.Add(1)
				}
				time.Sleep(10 * time.Millisecond) // ~100/s offered across 4 senders
			}
		}(s)
	}

	// Readers: GET /v1/routing must stay clean for the whole storm.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get(ts.URL + "/v1/routing")
				if err != nil {
					readErrs.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				reads.Add(1)
				if resp.StatusCode >= 500 {
					readErrs.Add(1)
					t.Errorf("read saw %d", resp.StatusCode)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}

	// Chaos: fail/brownout/restore cycles ride along, and must never error —
	// the repair surface is exempt from admission control by design.
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := &http.Client{Timeout: 10 * time.Second}
		post := func(body string) {
			resp, err := client.Post(ts.URL+"/v1/links", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("chaos post: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("chaos status %d for %s", resp.StatusCode, body)
			}
		}
		step := 0
		for {
			select {
			case <-stop:
				// Leave the topology healthy.
				post(`{"set":[]}`)
				post(`{"edge":5,"capacity":1}`)
				return
			case <-time.After(100 * time.Millisecond):
			}
			switch step % 3 {
			case 0:
				post(`{"fail":[2]}`)
			case 1:
				post(`{"edge":5,"capacity":0.5}`)
			case 2:
				post(`{"set":[]}`)
				post(`{"edge":5,"capacity":1}`)
			}
			step++
		}
	}()
	wg.Wait()

	if reads.Load() == 0 || readErrs.Load() > 0 {
		t.Fatalf("reads=%d readErrs=%d, want >0 clean reads", reads.Load(), readErrs.Load())
	}
	if accepted.Load() == 0 {
		t.Fatal("overload shed everything: no mutation was ever accepted")
	}
	if shed.Load() == 0 {
		t.Fatal("2x overload produced no 429 shed — admission control missing in action")
	}
	if other.Load() > 0 {
		t.Fatalf("%d mutations landed outside the overload contract", other.Load())
	}
	// Server-side accounting must agree with the client's view.
	m := e.Metrics()
	if got := m.rateLimited.Value() + m.inflightRejects.Value(); got != shed.Load() {
		t.Fatalf("server rate_limited+inflight_rejects=%d, client saw %d 429s", got, shed.Load())
	}
	if got := m.breakerRejects.Value(); got != busy.Load() {
		t.Fatalf("server breaker_rejects=%d, client saw %d 503s", got, busy.Load())
	}
	if total := m.ShedRequests(); total != shed.Load()+busy.Load() {
		t.Fatalf("shed_requests=%d, want 429s+503s=%d", total, shed.Load()+busy.Load())
	}
}
