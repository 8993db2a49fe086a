package main

import (
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sparseroute/internal/demand"
	"sparseroute/internal/graph/gen"
)

// TestSendMutationClassification checks that every response class lands in
// exactly one outcome bucket — the accounting identity gate checks.
func TestSendMutationClassification(t *testing.T) {
	var code int
	var retryAfter string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		w.WriteHeader(code)
	}))
	defer ts.Close()
	l := &loader{o: &loadOpts{addr: ts.URL}, client: ts.Client()}

	cases := []struct {
		code  int
		hint  string
		check func() int64
	}{
		{http.StatusAccepted, "", func() int64 { return l.mutations.OK }},
		{http.StatusOK, "", func() int64 { return l.mutations.OK }},
		{http.StatusTooManyRequests, "1", func() int64 { return l.mutations.Shed }},
		{http.StatusServiceUnavailable, "1", func() int64 { return l.mutations.Busy }},
		{http.StatusRequestEntityTooLarge, "", func() int64 { return l.mutations.TooLarge }},
		{http.StatusBadRequest, "", func() int64 { return l.mutations.ClientErrors }},
		{http.StatusInternalServerError, "", func() int64 { return l.mutations.ServerErrors }},
	}
	for _, c := range cases {
		code, retryAfter = c.code, c.hint
		before := c.check()
		l.sendMutation(http.MethodPost, "/v1/demand", []byte(`{}`))
		if c.check() != before+1 {
			t.Fatalf("status %d not counted in its bucket", c.code)
		}
	}
	// A 429 without Retry-After is still shed, but flagged.
	code, retryAfter = http.StatusTooManyRequests, ""
	l.sendMutation(http.MethodPost, "/v1/demand", []byte(`{}`))
	if l.mutations.MissingRetryAfter != 1 {
		t.Fatalf("missing_retry_after=%d, want 1", l.mutations.MissingRetryAfter)
	}

	sent := l.mutations.Sent
	accounted := l.mutations.OK + l.mutations.Shed + l.mutations.Busy + l.mutations.TooLarge +
		l.mutations.ClientErrors + l.mutations.ServerErrors + l.mutations.TransportErrors
	if sent != accounted {
		t.Fatalf("sent %d, accounted %d", sent, accounted)
	}
	if l.mutLat.window().Count != int(sent)-int(l.mutations.TransportErrors) {
		t.Fatalf("latency samples %d", l.mutLat.window().Count)
	}
}

func TestSendMutationTransportError(t *testing.T) {
	l := &loader{o: &loadOpts{addr: "http://127.0.0.1:1"}, client: &http.Client{Timeout: 200 * time.Millisecond}}
	l.sendMutation(http.MethodPost, "/v1/demand", []byte(`{}`))
	if l.mutations.TransportErrors != 1 || l.mutations.Sent != 1 {
		t.Fatalf("transport_errors=%d sent=%d, want 1/1", l.mutations.TransportErrors, l.mutations.Sent)
	}
}

func TestDemandSequenceModels(t *testing.T) {
	g := gen.Hypercube(3)
	for _, model := range []string{"gravity", "diurnal", "adversarial"} {
		o := &loadOpts{model: model, total: 8, pairs: 4, seed: 3}
		seq, err := demandSequence(o, g)
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		if len(seq) == 0 {
			t.Fatalf("%s: empty sequence", model)
		}
		for i, d := range seq[:8] {
			if d.SupportSize() == 0 {
				t.Fatalf("%s epoch %d empty", model, i)
			}
			for _, p := range d.Support() {
				if p.U == p.V {
					t.Fatalf("%s epoch %d has a self-loop pair %+v", model, i, p)
				}
			}
		}
	}
	if _, err := demandSequence(&loadOpts{model: "nope"}, g); err == nil {
		t.Fatal("unknown model accepted")
	}
}

// TestAdversarialSequenceRotatesSupport: consecutive epochs share (almost)
// no pairs, which is the property that defeats warm starts.
func TestAdversarialSequenceRotatesSupport(t *testing.T) {
	g := gen.Hypercube(3)
	o := &loadOpts{model: "adversarial", total: 8, pairs: 6, seed: 9}
	seq, err := demandSequence(o, g)
	if err != nil {
		t.Fatal(err)
	}
	overlaps := 0
	for e := 1; e < 16; e++ {
		prev := make(map[demand.Pair]bool)
		for _, p := range seq[e-1].Support() {
			prev[p] = true
		}
		for _, p := range seq[e].Support() {
			if prev[p] {
				overlaps++
			}
		}
	}
	// Random rotations collide occasionally; most of the support must churn.
	if overlaps > 20 {
		t.Fatalf("adversarial sequence kept %d pairs across 15 transitions — not adversarial to warm starts", overlaps)
	}
}

func TestPatchBodyIsValidPatchJSON(t *testing.T) {
	d := demand.New()
	d.Set(0, 7, 2)
	d.Set(1, 6, 1)
	d.Set(2, 5, 3)
	d.Set(3, 4, 4)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 32; i++ {
		raw := patchBody(d, rng)
		var req struct {
			Set []patchEntry `json:"set"`
		}
		if err := json.Unmarshal(raw, &req); err != nil {
			t.Fatalf("patch body %q: %v", raw, err)
		}
		if len(req.Set) == 0 {
			t.Fatalf("patch body %q sets nothing", raw)
		}
	}
}

// TestGate: a clean drill passes, and each overload invariant, when broken,
// is reported as exactly the violation that names it.
func TestGate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(r *report)
		want   []string // one substring per expected violation, in order
	}{
		{"passes", func(r *report) {}, nil},
		{"read errors", func(r *report) {
			r.Reads.ServerErrors = 2
			r.Reads.TransportErrors = 1
		}, []string{"reads saw 2 server errors", "reads saw 1 transport errors"}},
		{"accounting gap", func(r *report) {
			r.Mutations.Sent = 101 // one request unaccounted for
		}, []string{"accounting incomplete"}},
		{"missing Retry-After", func(r *report) {
			r.Mutations.MissingRetryAfter = 3
		}, []string{"lacked Retry-After"}},
		{"total shed", func(r *report) {
			r.Mutations.OK, r.Mutations.Shed, r.Mutations.Busy = 0, 90, 10
		}, []string{"no mutation was ever accepted"}},
		{"mutation server errors", func(r *report) {
			r.Mutations.OK, r.Mutations.ServerErrors = 39, 1
		}, []string{"non-503 server errors"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := &report{
				Mutations: mutationStats{Sent: 100, OK: 40, Shed: 50, Busy: 10},
				Reads:     readStats{Sent: 500, OK: 500, Latency: window{Count: 500, P99: 4}},
			}
			c.mutate(r)
			got := gate(r)
			if len(got) != len(c.want) {
				t.Fatalf("violations %q, want %d matching %q", got, len(c.want), c.want)
			}
			for i, w := range c.want {
				if !strings.Contains(got[i], w) {
					t.Errorf("violation %d = %q, want it to name %q", i, got[i], w)
				}
			}
		})
	}
}

func TestWindowOf(t *testing.T) {
	w := windowOf([]float64{1, 2, 3, 4})
	if w.Count != 4 || w.Mean != 2.5 || w.Max != 4 {
		t.Fatalf("window %+v", w)
	}
	if e := windowOf(nil); e.Count != 0 {
		t.Fatalf("empty window %+v", e)
	}
}
