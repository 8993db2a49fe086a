package service

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"sparseroute/internal/demand"
	"sparseroute/internal/graph/gen"
	"sparseroute/internal/oblivious"
)

// fuzzEnv is the one engine + server every fuzz iteration shares: building a
// path system per input would make the fuzzer measure sampling, not
// decoding. The engine runs with a shallow queue so valid mutation bodies
// mostly shed busy instead of queueing real solver work.
var fuzzEnv struct {
	once sync.Once
	ts   *httptest.Server
	err  error
}

func fuzzServer(f *testing.F) *httptest.Server {
	f.Helper()
	fuzzEnv.once.Do(func() {
		g := gen.Hypercube(3)
		r, err := oblivious.Build("valiant", g, nil)
		if err != nil {
			fuzzEnv.err = err
			return
		}
		e, err := New(Config{
			Graph: g, Router: r, RouterName: "valiant", R: 2, Seed: 1,
			Workers: 1, MaxBodyBytes: 1 << 16,
		})
		if err != nil {
			fuzzEnv.err = err
			return
		}
		// Seed a base matrix so PATCH bodies exercise the merge path instead
		// of uniformly bouncing off errNoBaseDemand.
		seed := demand.New()
		seed.Set(0, 7, 2)
		epoch, err := e.submit(seed)
		if err != nil {
			fuzzEnv.err = err
			return
		}
		if _, err := e.Wait(context.Background(), epoch); err != nil {
			fuzzEnv.err = err
			return
		}
		fuzzEnv.ts = httptest.NewServer(NewServer(e, ""))
	})
	if fuzzEnv.err != nil {
		f.Fatal(fuzzEnv.err)
	}
	return fuzzEnv.ts
}

// fuzzMutate sends one body at the given method+path and asserts the
// overload contract: the connection survives (no handler panic tears it
// down) and the status is one the API documents — never an unclassified
// 5xx.
func fuzzMutate(t *testing.T, method, url string, body []byte) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Skip() // unsendable fuzz input (invalid method chars etc.)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("transport error (handler panic?): %v", err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	switch resp.StatusCode {
	case http.StatusOK, http.StatusAccepted, http.StatusBadRequest,
		http.StatusConflict, http.StatusRequestEntityTooLarge,
		http.StatusTooManyRequests, http.StatusServiceUnavailable:
	default:
		t.Fatalf("%s %s -> undocumented status %d for body %q", method, url, resp.StatusCode, body)
	}
	// Every 429 shed must carry the Retry-After hint (503 may come from
	// errClosed, which legitimately has none).
	if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After for body %q", body)
	}
}

// FuzzDemandPatchJSON fuzzes the PATCH /v1/demand decoder through the real
// handler stack — MaxBytesReader, inflight budget, JSON decode, validation.
func FuzzDemandPatchJSON(f *testing.F) {
	f.Add([]byte(`{"set":[{"u":0,"v":7,"amount":2}],"clear":[{"u":1,"v":6}]}`))
	f.Add([]byte(`{"set":[],"clear":[]}`))
	f.Add([]byte(`{"set":[{"u":3,"v":3,"amount":1}]}`))
	f.Add([]byte(`{"clear":[{"u":-1,"v":900}]}`))
	f.Add([]byte(`{"set":[{"u":0,"v":1,"amount":-5}]}`))
	f.Add([]byte(`{"set"`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	ts := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzMutate(t, http.MethodPatch, ts.URL+"/v1/demand", body)
	})
}

// FuzzDemandJSON fuzzes POST /v1/demand the same way.
func FuzzDemandJSON(f *testing.F) {
	f.Add([]byte(`{"entries":[{"u":0,"v":7,"amount":2}]}`))
	f.Add([]byte(`{"entries":[{"u":0,"v":0,"amount":2}]}`))
	f.Add([]byte(`{"entries":[{"u":0,"v":70,"amount":2}]}`))
	f.Add([]byte(`{"entries":null}`))
	f.Add([]byte(`nonsense`))
	ts := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzMutate(t, http.MethodPost, ts.URL+"/v1/demand", body)
	})
}

// FuzzLinksJSON fuzzes the POST /v1/links decoder and its event validation:
// unknown edges, conflicting event kinds, and absurd capacities must all
// come back 4xx, never a 5xx (a link event that crashes the daemon is the
// worst possible failure mode — it is the repair path).
func FuzzLinksJSON(f *testing.F) {
	f.Add([]byte(`{"fail":[2]}`))
	f.Add([]byte(`{"restore":[2]}`))
	f.Add([]byte(`{"set":[]}`))
	f.Add([]byte(`{"set":[1,2,3]}`))
	f.Add([]byte(`{"edge":5,"capacity":0.5}`))
	f.Add([]byte(`{"edge":5}`))
	f.Add([]byte(`{"fail":[2],"set":[3]}`))
	f.Add([]byte(`{"edge":-1,"capacity":-2}`))
	f.Add([]byte(`{"fail":[99999]}`))
	f.Add([]byte(`{`))
	ts := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		resp, err := http.Post(ts.URL+"/v1/links", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("transport error (handler panic?): %v", err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		switch resp.StatusCode {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("POST /v1/links -> status %d for body %q", resp.StatusCode, body)
		}
		// Whatever the event did, leave the topology healthy for the next
		// iteration so accepted events cannot compound into an all-failed
		// graph that changes later iterations' status space.
		restore, err := http.Post(ts.URL+"/v1/links", "application/json", bytes.NewReader([]byte(`{"set":[]}`)))
		if err != nil {
			t.Fatalf("restore failed: %v", err)
		}
		io.Copy(io.Discard, restore.Body)
		restore.Body.Close()
		if restore.StatusCode != http.StatusOK {
			t.Fatalf("restore status %d", restore.StatusCode)
		}
	})
}
