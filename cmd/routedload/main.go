// Command routedload is the closed-loop overload generator for routed: it
// drives a live daemon with a paced stream of demand mutations drawn from
// the temodel traffic generators, keeps a pool of concurrent readers on the
// serving surface the whole time, optionally interleaves link chaos
// (fail / brownout / restore cycles), and reports what the daemon actually
// did about it — achieved versus offered mutation rate, the shed and busy
// shares with their Retry-After hints, and read latency quantiles under
// concurrent epochs. The server's own view of the same run is its /metrics
// (sparseroute_engine_shed_requests, _rate_limited, _breaker_rejects,
// _epochs_superseded, ...).
//
// "Closed loop" means every sender waits for its response before taking the
// next slot: when the daemon sheds or slows down, the offered rate sags
// instead of piling into an unbounded client-side backlog, which is how real
// well-behaved clients experience admission control. Overload is therefore
// expressed as a target rate (-qps) above the daemon's capacity, not as an
// open fire hose.
//
//	routedload -addr http://localhost:8344 -topo topo.json \
//	    -qps 200 -duration 30s -model adversarial -chaos 2s
//
// The run prints its summary and gates itself: the exit status is non-zero,
// with each violated invariant named on stderr, unless reads never saw a 5xx
// or a transport error, every mutation is accounted for (ok, shed, busy, or
// an explicit error class), every shed or busy response carried Retry-After,
// no mutation got a non-503 5xx, and at least one mutation was accepted.
// Latency under load is measured by the repository benchmark (go run
// ./bench), not here.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sparseroute/internal/demand"
	"sparseroute/internal/graph"
	"sparseroute/internal/serial"
	"sparseroute/internal/stats"
	"sparseroute/internal/temodel"
)

// window summarizes a latency sample in milliseconds.
type window struct {
	Count               int
	Mean, P50, P99, Max float64
}

func windowOf(ms []float64) window {
	return window{
		Count: len(ms),
		Mean:  stats.Mean(ms),
		P50:   stats.Quantile(ms, 0.5),
		P99:   stats.Quantile(ms, 0.99),
		Max:   stats.Max(ms),
	}
}

// mutationStats is the client-side view of the mutating surface. Every sent
// request lands in exactly one outcome bucket, so
// Sent == OK + Shed + Busy + TooLarge + ClientErrors + ServerErrors +
// TransportErrors always holds — the accounting identity gate checks.
type mutationStats struct {
	Sent int64
	OK   int64 // 200 / 202
	// Shed is admission control: 429 (rate limit, inflight budget).
	Shed int64
	// Busy is 503: an open circuit breaker (or a daemon shutting down). An
	// accepted mutation is never dropped; a burst coalesces in the daemon's
	// epoch slot (epochs_superseded) instead.
	Busy     int64
	TooLarge int64 // 413 from the body cap
	// MissingRetryAfter counts shed/busy responses that failed to carry the
	// Retry-After hint; the gate requires zero.
	MissingRetryAfter int64
	ClientErrors      int64 // other 4xx
	ServerErrors      int64 // non-503 5xx
	TransportErrors   int64
	Latency           window
}

// readStats is the client-side view of GET /v1/routing under load. The gate
// requires ServerErrors == TransportErrors == 0: reads are lock-free and
// must stay clean no matter how hard the mutating surface is being shed.
type readStats struct {
	Sent            int64
	OK              int64
	NotFound        int64 // only possible before the seed epoch
	ServerErrors    int64
	TransportErrors int64
	Latency         window
}

// chaosStats counts the link events the chaos loop injected.
type chaosStats struct {
	Events    int64
	Fails     int64
	Brownouts int64
	Restores  int64
	Errors    int64
}

// report is one finished drill: what summarize prints and gate judges.
type report struct {
	Elapsed   time.Duration
	Mutations mutationStats
	Reads     readStats
	Chaos     chaosStats
}

// sample is a mutex-guarded latency collector (milliseconds).
type sample struct {
	mu sync.Mutex
	ms []float64
}

func (s *sample) push(d time.Duration) {
	s.mu.Lock()
	s.ms = append(s.ms, float64(d)/float64(time.Millisecond))
	s.mu.Unlock()
}

func (s *sample) window() window {
	s.mu.Lock()
	defer s.mu.Unlock()
	return windowOf(s.ms)
}

type loadOpts struct {
	addr      string
	topoPath  string
	model     string
	qps       float64
	duration  time.Duration
	pairs     int
	total     float64
	workers   int
	readers   int
	patchFrac float64
	deadline  time.Duration
	chaos     time.Duration
	seed      uint64
	timeout   time.Duration
}

func parseFlags(args []string) (*loadOpts, error) {
	o := &loadOpts{}
	fs := flag.NewFlagSet("routedload", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", "http://localhost:8344", "base URL of the routed daemon")
	fs.StringVar(&o.topoPath, "topo", "", "topology file the daemon was started with (required: demand is generated against it)")
	fs.StringVar(&o.model, "model", "gravity", "demand model: gravity|diurnal|adversarial")
	fs.Float64Var(&o.qps, "qps", 50, "target mutation rate; set above the daemon's capacity for an overload drill")
	fs.DurationVar(&o.duration, "duration", 10*time.Second, "how long to drive load")
	fs.IntVar(&o.pairs, "pairs", 8, "demand pairs per epoch")
	fs.Float64Var(&o.total, "total", 16, "total demand volume per epoch")
	fs.IntVar(&o.workers, "workers", 8, "concurrent closed-loop senders")
	fs.IntVar(&o.readers, "readers", 4, "concurrent GET /v1/routing loops")
	fs.Float64Var(&o.patchFrac, "patch-frac", 0.25, "fraction of mutations sent as PATCH deltas instead of full POSTs")
	fs.DurationVar(&o.deadline, "deadline", 2*time.Second, "?deadline= attached to every mutation: the daemon abandons epochs still pending past it (0 = none)")
	fs.DurationVar(&o.chaos, "chaos", 0, "interval between link-chaos events (fail -> brownout -> restore cycle); 0 disables")
	fs.Uint64Var(&o.seed, "seed", 1, "demand and chaos RNG seed")
	fs.DurationVar(&o.timeout, "timeout", 10*time.Second, "per-request HTTP timeout")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if o.topoPath == "" {
		return nil, fmt.Errorf("-topo is required")
	}
	if o.qps <= 0 || o.workers < 1 || o.duration <= 0 {
		return nil, fmt.Errorf("need -qps > 0, -workers >= 1, -duration > 0")
	}
	return o, nil
}

// demandSequence pre-generates the epoch train the senders cycle through.
func demandSequence(o *loadOpts, g *graph.Graph) ([]*demand.Demand, error) {
	rng := rand.New(rand.NewPCG(o.seed, 0))
	const epochs = 256
	switch o.model {
	case "gravity":
		return temodel.GravitySequence(g, epochs, o.total, o.pairs, rng), nil
	case "diurnal":
		return temodel.DiurnalSequence(g, epochs, 32, o.total, o.pairs, 0.2, rng), nil
	case "adversarial":
		return temodel.AdversarialSequence(g, epochs, o.total, o.pairs, rng), nil
	}
	return nil, fmt.Errorf("unknown demand model %q (gravity|diurnal|adversarial)", o.model)
}

// loader owns one run's client, counters, and samples.
type loader struct {
	o      *loadOpts
	client *http.Client
	seq    []*demand.Demand

	next       atomic.Int64 // shared pacing sequence
	mutations  mutationStats
	reads      readStats
	chaosStats chaosStats
	mutLat     sample
	readLat    sample
}

// The stats structs are plain int64 so a finished report is a plain value;
// during the run all increments go through atomic on their addresses.
func inc(p *int64) { atomic.AddInt64(p, 1) }

func (l *loader) url(path string) string { return l.o.addr + path }

// sendMutation sends body as one JSON request and classifies the response
// into the mutation buckets.
func (l *loader) sendMutation(method, path string, body []byte) {
	inc(&l.mutations.Sent)
	req, err := http.NewRequest(method, l.url(path), bytes.NewReader(body))
	if err != nil {
		inc(&l.mutations.TransportErrors)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := l.client.Do(req)
	l.mutLat.push(time.Since(start))
	if err != nil {
		inc(&l.mutations.TransportErrors)
		return
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted:
		inc(&l.mutations.OK)
	case resp.StatusCode == http.StatusTooManyRequests:
		inc(&l.mutations.Shed)
		if resp.Header.Get("Retry-After") == "" {
			inc(&l.mutations.MissingRetryAfter)
		}
	case resp.StatusCode == http.StatusServiceUnavailable:
		inc(&l.mutations.Busy)
		if resp.Header.Get("Retry-After") == "" {
			inc(&l.mutations.MissingRetryAfter)
		}
	case resp.StatusCode == http.StatusRequestEntityTooLarge:
		inc(&l.mutations.TooLarge)
	case resp.StatusCode >= 500:
		inc(&l.mutations.ServerErrors)
	default:
		inc(&l.mutations.ClientErrors)
	}
}

// mutationPath carries the ?deadline= the daemon uses to abandon epochs a
// busy solver would otherwise solve for nobody.
func (l *loader) mutationPath() string {
	p := "/v1/demand"
	if l.o.deadline > 0 {
		p += "?deadline=" + l.o.deadline.String()
	}
	return p
}

func encodeDemand(d *demand.Demand) []byte {
	var buf bytes.Buffer
	if err := serial.EncodeDemand(&buf, d); err != nil {
		panic(err) // in-memory encode of a generated matrix cannot fail
	}
	return buf.Bytes()
}

// patchBody turns an epoch into a small PATCH delta: bump a couple of its
// pairs and clear one, exercising the touched-pair fast path.
type patchEntry struct {
	U      int     `json:"u"`
	V      int     `json:"v"`
	Amount float64 `json:"amount,omitempty"`
}

func patchBody(d *demand.Demand, rng *rand.Rand) []byte {
	sup := d.Support()
	req := struct {
		Set   []patchEntry `json:"set,omitempty"`
		Clear []patchEntry `json:"clear,omitempty"`
	}{}
	for i := 0; i < 2 && len(sup) > 0; i++ {
		p := sup[rng.IntN(len(sup))]
		req.Set = append(req.Set, patchEntry{U: p.U, V: p.V, Amount: d.Get(p.U, p.V) * 1.5})
	}
	if len(sup) > 2 && rng.Float64() < 0.5 {
		p := sup[rng.IntN(len(sup))]
		req.Clear = append(req.Clear, patchEntry{U: p.U, V: p.V})
	}
	raw, _ := json.Marshal(req)
	return raw
}

// sender is one closed-loop worker: it claims global slot i, sleeps until
// that slot's scheduled time start + i/qps, sends, and waits for the
// response before claiming the next slot. A slot scheduled past the end of
// the run ends the worker.
func (l *loader) sender(start, end time.Time, id int) {
	rng := rand.New(rand.NewPCG(l.o.seed, uint64(id)+1))
	period := time.Duration(float64(time.Second) / l.o.qps)
	for {
		i := l.next.Add(1) - 1
		target := start.Add(time.Duration(i) * period)
		if target.After(end) {
			return
		}
		if d := time.Until(target); d > 0 {
			time.Sleep(d)
		}
		d := l.seq[int(i)%len(l.seq)]
		if rng.Float64() < l.o.patchFrac {
			l.sendMutation(http.MethodPatch, l.mutationPath(), patchBody(d, rng))
		} else {
			l.sendMutation(http.MethodPost, l.mutationPath(), encodeDemand(d))
		}
	}
}

// reader hammers GET /v1/routing until ctx is done.
func (l *loader) reader(ctx context.Context) {
	for ctx.Err() == nil {
		inc(&l.reads.Sent)
		start := time.Now()
		resp, err := l.client.Get(l.url("/v1/routing"))
		l.readLat.push(time.Since(start))
		if err != nil {
			inc(&l.reads.TransportErrors)
			continue
		}
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			inc(&l.reads.OK)
		case resp.StatusCode == http.StatusNotFound:
			inc(&l.reads.NotFound)
		case resp.StatusCode >= 500:
			inc(&l.reads.ServerErrors)
		}
		// A short breath keeps the reader pool from turning into its own
		// CPU-bound load test; the quantiles want steady sampling, not spin.
		time.Sleep(2 * time.Millisecond)
	}
}

// postLinks sends one link event, counting chaos errors (the restore path
// must keep working even while mutations shed, so errors here are real
// findings, not noise).
func (l *loader) postLinks(body any) bool {
	raw, _ := json.Marshal(body)
	resp, err := l.client.Post(l.url("/v1/links"), "application/json", bytes.NewReader(raw))
	if err != nil {
		inc(&l.chaosStats.Errors)
		return false
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		inc(&l.chaosStats.Errors)
		return false
	}
	inc(&l.chaosStats.Events)
	return true
}

// chaosLoop cycles fail -> brownout -> restore on random edges, always
// repairing what it broke before breaking something new, and restores
// everything on the way out so the daemon is left healthy.
func (l *loader) chaosLoop(ctx context.Context, g *graph.Graph) {
	rng := rand.New(rand.NewPCG(l.o.seed, 1<<32))
	ticker := time.NewTicker(l.o.chaos)
	defer ticker.Stop()
	failed, browned := -1, -1
	restoreAll := func() {
		if failed >= 0 && l.postLinks(map[string]any{"restore": []int{failed}}) {
			inc(&l.chaosStats.Restores)
		}
		if browned >= 0 && l.postLinks(map[string]any{"edge": browned, "capacity": 1.0}) {
			inc(&l.chaosStats.Restores)
		}
		failed, browned = -1, -1
	}
	defer restoreAll()
	step := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		switch step % 3 {
		case 0:
			e := rng.IntN(g.NumEdges())
			if l.postLinks(map[string]any{"fail": []int{e}}) {
				failed = e
				inc(&l.chaosStats.Fails)
			}
		case 1:
			e := rng.IntN(g.NumEdges())
			if e == failed {
				e = (e + 1) % g.NumEdges()
			}
			if l.postLinks(map[string]any{"edge": e, "capacity": 0.5}) {
				browned = e
				inc(&l.chaosStats.Brownouts)
			}
		case 2:
			restoreAll()
		}
		step++
	}
}

// seedEpoch submits one blocking epoch before readers start, so
// GET /v1/routing serves from the first sample onward.
func (l *loader) seedEpoch() error {
	resp, err := l.client.Post(l.url("/v1/demand?wait=1"), "application/json", bytes.NewReader(encodeDemand(l.seq[0])))
	if err != nil {
		return fmt.Errorf("seeding first epoch: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("seeding first epoch: status %s", resp.Status)
	}
	return nil
}

func run(o *loadOpts) (*report, error) {
	raw, err := os.ReadFile(o.topoPath)
	if err != nil {
		return nil, err
	}
	g, err := serial.DecodeGraph(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("decoding topology %s: %w", o.topoPath, err)
	}
	seq, err := demandSequence(o, g)
	if err != nil {
		return nil, err
	}
	l := &loader{o: o, client: &http.Client{Timeout: o.timeout}, seq: seq}
	if err := l.seedEpoch(); err != nil {
		return nil, err
	}

	start := time.Now()
	end := start.Add(o.duration)
	ctx, cancel := context.WithDeadline(context.Background(), end)
	defer cancel()

	var readerWG, chaosWG, senderWG sync.WaitGroup
	for i := 0; i < o.readers; i++ {
		readerWG.Add(1)
		go func() { defer readerWG.Done(); l.reader(ctx) }()
	}
	if o.chaos > 0 {
		chaosWG.Add(1)
		go func() { defer chaosWG.Done(); l.chaosLoop(ctx, g) }()
	}
	for i := 0; i < o.workers; i++ {
		senderWG.Add(1)
		go func(id int) { defer senderWG.Done(); l.sender(start, end, id) }(i)
	}
	senderWG.Wait()
	cancel()
	readerWG.Wait()
	chaosWG.Wait()

	rep := &report{
		Elapsed:   time.Since(start),
		Mutations: l.mutations,
		Reads:     l.reads,
		Chaos:     l.chaosStats,
	}
	rep.Mutations.Latency = l.mutLat.window()
	rep.Reads.Latency = l.readLat.window()
	return rep, nil
}

// summarize prints the run. Offered is what the closed loop actually sent;
// under overload it sags below the target because senders block on shed
// responses. Achieved is accepted mutations per second.
func summarize(w *os.File, o *loadOpts, r *report) {
	secs := r.Elapsed.Seconds()
	fmt.Fprintf(w, "routedload: %s model=%s %.1fs\n", o.addr, o.model, secs)
	fmt.Fprintf(w, "  mutations: target %.0f/s offered %.1f/s achieved %.1f/s\n",
		o.qps, float64(r.Mutations.Sent)/secs, float64(r.Mutations.OK)/secs)
	fmt.Fprintf(w, "    sent %d ok %d shed %d busy %d too-large %d client-err %d server-err %d transport-err %d\n",
		r.Mutations.Sent, r.Mutations.OK, r.Mutations.Shed, r.Mutations.Busy,
		r.Mutations.TooLarge, r.Mutations.ClientErrors, r.Mutations.ServerErrors, r.Mutations.TransportErrors)
	fmt.Fprintf(w, "    latency p50 %.2fms p99 %.2fms\n", r.Mutations.Latency.P50, r.Mutations.Latency.P99)
	fmt.Fprintf(w, "  reads: sent %d ok %d not-found %d server-err %d transport-err %d p50 %.2fms p99 %.2fms\n",
		r.Reads.Sent, r.Reads.OK, r.Reads.NotFound, r.Reads.ServerErrors, r.Reads.TransportErrors,
		r.Reads.Latency.P50, r.Reads.Latency.P99)
	if r.Chaos.Events > 0 || r.Chaos.Errors > 0 {
		fmt.Fprintf(w, "  chaos: %d events (%d fails, %d brownouts, %d restores), %d errors\n",
			r.Chaos.Events, r.Chaos.Fails, r.Chaos.Brownouts, r.Chaos.Restores, r.Chaos.Errors)
	}
}

// gate checks the overload invariants on a finished drill and returns the
// violations, each naming the invariant it broke; an empty slice passes.
func gate(r *report) []string {
	var bad []string
	if r.Reads.ServerErrors > 0 {
		bad = append(bad, fmt.Sprintf("reads saw %d server errors (5xx); the read path must never shed", r.Reads.ServerErrors))
	}
	if r.Reads.TransportErrors > 0 {
		bad = append(bad, fmt.Sprintf("reads saw %d transport errors; the daemon dropped connections under load", r.Reads.TransportErrors))
	}
	m := r.Mutations
	accounted := m.OK + m.Shed + m.Busy + m.TooLarge + m.ClientErrors + m.ServerErrors + m.TransportErrors
	if m.Sent != accounted {
		bad = append(bad, fmt.Sprintf("mutation accounting incomplete: sent %d but only %d land in an outcome bucket", m.Sent, accounted))
	}
	if m.MissingRetryAfter > 0 {
		bad = append(bad, fmt.Sprintf("%d shed/busy responses lacked Retry-After", m.MissingRetryAfter))
	}
	if m.ServerErrors > 0 {
		bad = append(bad, fmt.Sprintf("mutations saw %d non-503 server errors; overload must shed, not crash", m.ServerErrors))
	}
	if m.Sent > 0 && m.OK == 0 {
		bad = append(bad, "no mutation was ever accepted: the daemon shed everything, not excess")
	}
	return bad
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "routedload:", err)
		os.Exit(2)
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "routedload:", err)
		os.Exit(1)
	}
	summarize(os.Stdout, o, rep)
	violations := gate(rep)
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "routedload: VIOLATION:", v)
	}
	if len(violations) > 0 {
		os.Exit(1)
	}
	fmt.Println("routedload: overload invariants hold")
}
