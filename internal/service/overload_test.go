package service

import (
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
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
	for _, metric := range []string{"sparseroute_engine_shed_requests", "sparseroute_engine_rate_limited", "sparseroute_engine_inflight_rejects"} {
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

// TestServerDeadlineBoundsWait: ?deadline= bounds how long ?wait=1 waits,
// not whether the epoch solves. A wait that outlives it answers 504 "still
// solving"; the accepted epoch then solves and serves anyway.
func TestServerDeadlineBoundsWait(t *testing.T) {
	_, e, ts := testServer(t, Config{Seed: 1}, "")
	entered, release := holdSolves(e)
	defer release()
	code, body := postJSON(t, ts.URL+"/v1/demand?wait=1&deadline=50ms", `{"entries":[{"u":0,"v":7,"amount":2},{"u":1,"v":6,"amount":1}]}`)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d body %v, want 504 while the solve is held", code, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "still solving") {
		t.Fatalf("504 body %v, want the still-solving reply", body)
	}
	<-entered
	release()
	if out := quiesce(t, e)[1]; !out.OK {
		t.Fatalf("epoch 1 past its wait deadline: %+v, want it solved", out)
	}
	servesLatest(t, e)
}

// TestServerOverloadDrill is the sustained overload drill, run in CI's race
// tier against a real net/http server over TCP: an engine with a tight
// mutation quota takes several times what it can admit — submits and
// patches, half of them waiting on their epoch under a ?deadline= — while
// readers hammer GET /v1/routing and a chaos goroutine cycles link failures,
// brownouts, and restores. The drill asserts the overload contract:
//
//   - every mutation lands in exactly one bucket: sent = 2xx + 429 + 413 +
//     other 4xx + 5xx + transport errors;
//   - overload sheds only with 429 (every one carrying Retry-After), and the
//     server's rate_limited + inflight_rejects agree with the client's
//     count; no mutation sees a 5xx — only a closed engine answers 503 — and
//     at least one is accepted;
//   - reads never see a 5xx or a transport error;
//   - link chaos keeps working while mutations shed (the repair path is
//     never admission-gated);
//   - once the storm ends, one more waited submit is served exactly.
func TestServerOverloadDrill(t *testing.T) {
	_, e, ts := testServer(t, Config{
		Seed:             1,
		MutationRate:     50,
		MutationBurst:    5,
		MaxInflightBytes: 1 << 20,
	}, "")

	// Seed one epoch so readers always have a routing and patches a base.
	code, _ := postJSON(t, ts.URL+"/v1/demand?wait=1", `{"entries":[{"u":0,"v":7,"amount":2},{"u":1,"v":6,"amount":1}]}`)
	if code != http.StatusOK {
		t.Fatalf("seed epoch status %d", code)
	}

	const (
		senders  = 4
		duration = 1500 * time.Millisecond
	)
	var (
		sent, ok2xx, shed, tooLarge, client4xx, server5xx, transport atomic.Int64
		readErrs, reads                                              atomic.Int64
		stop                                                         = make(chan struct{})
		wg                                                           sync.WaitGroup
	)
	time.AfterFunc(duration, func() { close(stop) })

	// Senders: several times the 50/s quota between them, closed loop. A
	// third of the mutations are patches; odd senders wait on their epoch.
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			rng := rand.New(rand.NewPCG(7, uint64(id)))
			query := ""
			if id%2 == 1 {
				query = "?wait=1&deadline=2s"
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				u := rng.IntN(4)
				method, body := http.MethodPost, fmt.Sprintf(`{"entries":[{"u":%d,"v":%d,"amount":%d}]}`, u, 7-u, 1+rng.IntN(3))
				if rng.IntN(3) == 0 {
					method, body = http.MethodPatch, fmt.Sprintf(`{"set":[{"u":%d,"v":%d,"amount":%d}]}`, u, 7-u, 1+rng.IntN(3))
				}
				req, err := http.NewRequest(method, ts.URL+"/v1/demand"+query, strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				sent.Add(1)
				resp, err := client.Do(req)
				if err != nil {
					transport.Add(1)
					t.Errorf("mutation transport error: %v", err)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch c := resp.StatusCode; {
				case c >= 200 && c < 300:
					ok2xx.Add(1)
				case c == http.StatusTooManyRequests:
					if resp.Header.Get("Retry-After") == "" {
						t.Error("429 without Retry-After")
					}
					shed.Add(1)
				case c == http.StatusRequestEntityTooLarge:
					tooLarge.Add(1)
				case c >= 400 && c < 500:
					client4xx.Add(1)
					t.Errorf("%s %s: status %d", method, body, c)
				default:
					server5xx.Add(1)
					t.Errorf("%s %s: status %d; overload must shed with 429, and only a closed engine answers 503", method, body, c)
				}
				time.Sleep(10 * time.Millisecond) // at most ~100/s per sender
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

	t.Logf("mutations: sent %d, 2xx %d, 429 %d, 413 %d, 4xx %d, 5xx %d, transport %d; reads %d",
		sent.Load(), ok2xx.Load(), shed.Load(), tooLarge.Load(), client4xx.Load(), server5xx.Load(), transport.Load(), reads.Load())
	if accounted := ok2xx.Load() + shed.Load() + tooLarge.Load() + client4xx.Load() + server5xx.Load() + transport.Load(); accounted != sent.Load() {
		t.Fatalf("sent %d mutations, %d land in an outcome bucket", sent.Load(), accounted)
	}
	if reads.Load() == 0 || readErrs.Load() > 0 {
		t.Fatalf("reads=%d readErrs=%d, want >0 clean reads", reads.Load(), readErrs.Load())
	}
	if ok2xx.Load() == 0 {
		t.Fatal("overload shed everything: no mutation was ever accepted")
	}
	if shed.Load() == 0 {
		t.Fatal("overload produced no 429 shed — admission control missing in action")
	}
	// Server-side accounting must agree with the client's view.
	m := e.Metrics()
	if got := m.rateLimited.Value() + m.inflightRejects.Value(); got != shed.Load() {
		t.Fatalf("server rate_limited+inflight_rejects=%d, client saw %d 429s", got, shed.Load())
	}
	if total := m.ShedRequests(); total != shed.Load() {
		t.Fatalf("shed_requests=%d, want the client's 429s=%d", total, shed.Load())
	}

	// The storm is over: one more waited submit, retried past its 429s like
	// a well-behaved client, must be the routing that serves.
	final := `{"entries":[{"u":2,"v":5,"amount":3},{"u":0,"v":7,"amount":1}]}`
	for try := 0; ; try++ {
		resp, err := http.Post(ts.URL+"/v1/demand?wait=1", "application/json", strings.NewReader(final))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests && try < 3 {
			after, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
			time.Sleep(time.Duration(after) * time.Second)
			continue
		}
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), `"solved":true`) {
			t.Fatalf("final submit: status %d body %s", resp.StatusCode, raw)
		}
		break
	}
	servesLatest(t, e)
}
