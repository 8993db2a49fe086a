package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"sparseroute/internal/demand"
	"sparseroute/internal/flow"
	"sparseroute/internal/graph"
	"sparseroute/internal/obs"
	"sparseroute/internal/serial"
)

// readInterval paces the reader: 20 ticks a second, open loop.
const readInterval = 50 * time.Millisecond

// recoverBudget is the restart time one round's recovery drill samples: one
// restart where it takes longer than this (wan64-flap replays its link events
// for over a second), several where it takes a tenth of a second and a single
// sample would swing with process start-up.
const recoverBudget = 300 * time.Millisecond

// pollInterval is the sleep between /healthz polls while a link op waits for
// its re-optimised routing.
const pollInterval = 500 * time.Microsecond

// roundResult is what one round (one fresh daemon) measured.
type roundResult struct {
	setupS    float64
	recoverS  float64
	rssPeakMB float64
	wallS     float64    // timed phase, validation pauses taken out
	epochMs   []float64  // gated op latencies
	readMs    []float64  // reader tick latencies, from due time
	readLate  []float64  // how late each tick was sent, ms
	cong      []float64  // served max congestion per timed op
	spinMs    [2]float64 // noise sentinel, timed before and after the round
	ops       int        // timed writer ops sent
	attempted int
	failed    int
	errs      []string
	traces    []*obs.EpochTrace // the daemon's own epoch traces of the timed ops
}

// opsPerS is the round's timed op rate.
func (r *roundResult) opsPerS() float64 {
	if r.wallS <= 0 {
		return 0
	}
	return float64(r.ops) / r.wallS
}

func (r *roundResult) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// healthReply is the part of GET /healthz the harness reads.
type healthReply struct {
	Status      string `json:"status"`
	Epoch       uint64 `json:"epoch"`
	LastOutcome *struct {
		Epoch        uint64
		OK           bool
		Fallback     bool
		Renormalized bool
		Congestion   float64
		Err          string
	} `json:"last_outcome"`
}

// demandReply is the POST/PATCH /v1/demand?wait=1 reply.
type demandReply struct {
	Epoch      uint64  `json:"epoch"`
	Solved     bool    `json:"solved"`
	Fallback   bool    `json:"fallback"`
	Err        string  `json:"err"`
	Congestion float64 `json:"congestion"`
	Warm       string  `json:"warm"`
}

// linksReply is the GET/POST /v1/links reply.
type linksReply struct {
	Version     uint64 `json:"version"`
	FailedEdges []int  `json:"failed_edges"`
	Hash        string `json:"hash"`
}

// routingReply is the part of the GET /v1/routing reply the harness reads:
// the routing, left in its wire form for serial.DecodeRouting.
type routingReply struct {
	Routing json.RawMessage `json:"routing"`
}

// session drives one daemon through a plan.
type session struct {
	d     *daemon
	w     *conn // the closed-loop writer's connection
	g     *graph.Graph
	epoch uint64 // last epoch the daemon assigned
	res   *roundResult
}

// mutate sends a demand mutation and waits for its epoch to publish.
func (s *session) mutate(method string, body []byte) (*demandReply, error) {
	code, raw, err := s.w.do(method, "/v1/demand?wait=1", body)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("%s /v1/demand: status %d: %s", method, code, bytes.TrimSpace(raw))
	}
	var rep demandReply
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, err
	}
	s.epoch = rep.Epoch
	if !rep.Solved || rep.Fallback {
		return &rep, fmt.Errorf("epoch %d not solved: %s", rep.Epoch, rep.Err)
	}
	return &rep, nil
}

// linkEvent posts a topology event and waits until the full re-adapt that
// follows the interim renormalised publish is itself published. A link event
// under a standing demand consumes two epochs: the interim and the re-adapt.
func (s *session) linkEvent(body []byte) (float64, error) {
	code, raw, err := s.w.do(http.MethodPost, "/v1/links", body)
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("POST /v1/links: status %d: %s", code, bytes.TrimSpace(raw))
	}
	target := s.epoch + 2
	deadline := time.Now().Add(opTimeout)
	for {
		var h healthReply
		if err := s.w.getJSON("/healthz", &h); err != nil {
			return 0, err
		}
		if lo := h.LastOutcome; lo != nil && lo.Epoch >= target {
			s.epoch = lo.Epoch
			if !lo.OK || lo.Fallback || lo.Renormalized || h.Epoch < target {
				return 0, fmt.Errorf("re-adapt epoch %d not published: ok=%v fallback=%v renormalized=%v err=%q",
					lo.Epoch, lo.OK, lo.Fallback, lo.Renormalized, lo.Err)
			}
			return lo.Congestion, nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("re-adapt epoch %d not published within %v", target, opTimeout)
		}
		time.Sleep(pollInterval)
	}
}

// fetchRouting pulls and decodes the served routing.
func (s *session) fetchRouting() (flow.Routing, error) {
	var rep routingReply
	if err := s.w.getJSON("/v1/routing", &rep); err != nil {
		return nil, err
	}
	return serial.DecodeRouting(bytes.NewReader(rep.Routing), s.g)
}

func usesEdge(r flow.Routing, edge int) bool {
	for _, wps := range r {
		for _, wp := range wps {
			for _, id := range wp.Path.EdgeIDs {
				if id == edge {
					return true
				}
			}
		}
	}
	return false
}

// routesExactly checks that r routes d exactly (structurally valid paths,
// per-pair weights summing to the demand, no flow without demand).
func routesExactly(g *graph.Graph, r flow.Routing, d *demand.Demand) error {
	return r.ValidateRoutes(g, d, 1e-6*(1+d.Size()))
}

// onLiveCandidates checks every routed path against the snapshot's installed
// path system: it must be one of the pair's candidates and avoid every
// failed edge.
func onLiveCandidates(r flow.Routing, snap *serial.Snapshot) error {
	failed := make(map[int]bool, len(snap.FailedEdges))
	for _, id := range snap.FailedEdges {
		failed[id] = true
	}
	for pair, wps := range r {
		keys := make(map[string]bool)
		for _, c := range snap.System.Unique(pair.U, pair.V) {
			keys[c.Key()] = true
		}
		for _, wp := range wps {
			if !keys[wp.Path.Key()] {
				return fmt.Errorf("pair %v routed on a path that is not a candidate", pair)
			}
			for _, id := range wp.Path.EdgeIDs {
				if failed[id] {
					return fmt.Errorf("pair %v routed over failed edge %d", pair, id)
				}
			}
		}
	}
	return nil
}

// readLoop is the paced reader: every readInterval it pulls the full routing
// table `pulls` times back to back on its own connection, timing the tick
// from its due time. It runs until stop is closed.
func readLoop(c *conn, pulls int, stop <-chan struct{}, res *roundResult, mu *sync.Mutex) {
	p := pacer{start: time.Now(), interval: readInterval}
	for i := 0; ; i++ {
		// A tick already overdue goes out at once: time.After fires
		// immediately on a wait that is not positive.
		select {
		case <-stop:
			return
		case <-time.After(time.Until(p.due(i))):
		}
		sent := time.Now()
		var err error
		for k := 0; k < pulls && err == nil; k++ {
			var resp *http.Response
			resp, err = c.hc.Get(c.base + "/v1/routing")
			if err != nil {
				break
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("GET /v1/routing: status %d", resp.StatusCode)
			}
		}
		done := time.Now()
		mu.Lock()
		res.attempted++
		if err != nil {
			res.fail("reader tick %d: %v", i, err)
		} else {
			res.readMs = append(res.readMs, ms(p.latency(i, done)))
			res.readLate = append(res.readLate, ms(p.lateness(i, sent)))
		}
		mu.Unlock()
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runRound runs one round of w on a fresh daemon in a fresh data directory
// under root: cold start, standing matrix, checkpoint, the timed op list with
// the paced reader alongside, output validation, then the SIGKILL recovery
// drill. The returned error is an infrastructure failure (the round
// could not run); measured failures are counted in the result.
func runRound(bin, root string, w *workload, seed uint64, round int, scale float64) (*roundResult, error) {
	res := &roundResult{}
	g := w.topo()
	pl := w.planFor(g, seed, round, scale)
	s := &session{g: g, res: res}
	defer func() {
		s.w.close()
		s.d.kill()
	}()

	// Cold start on a fresh data directory: setup_s.
	dir, err := os.MkdirTemp(root, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var topo bytes.Buffer
	if err := serial.EncodeGraph(&topo, g); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "topo.json"), topo.Bytes(), 0o644); err != nil {
		return nil, err
	}
	var took time.Duration
	if s.d, took, err = startDaemon(bin, dir); err != nil {
		return nil, err
	}
	res.setupS = took.Seconds()
	s.w = newConn(s.d.url)

	// Standing matrix, then a checkpoint: the snapshot truncates the WAL, so
	// after the timed phase the log holds exactly the timed ops and
	// recover_s replays exactly them.
	if _, err := s.mutate(http.MethodPost, demandBody(pl.base)); err != nil {
		return nil, fmt.Errorf("standing matrix: %w", err)
	}
	baseEpoch := s.epoch
	if code, raw, err := s.w.do(http.MethodPost, "/v1/snapshot", nil); err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("checkpoint: status %d err %v: %s", code, err, raw)
	}

	s.timedPhase(pl)

	if res.rssPeakMB, err = s.d.rssPeakMB(); err != nil {
		return nil, err
	}
	var tr struct {
		Traces []*obs.EpochTrace `json:"traces"`
	}
	if err := s.w.getJSON("/debug/trace", &tr); err != nil {
		return nil, err
	}
	for _, t := range tr.Traces {
		if t.Epoch > baseEpoch {
			res.traces = append(res.traces, t)
		}
	}

	// Output validation: the served routing routes the last accepted demand
	// exactly.
	res.attempted++
	if r, err := s.fetchRouting(); err != nil {
		res.fail("post-round routing: %v", err)
	} else if err := routesExactly(g, r, pl.final); err != nil {
		res.fail("post-round routing: %v", err)
	}
	var before linksReply
	if err := s.w.getJSON("/v1/links", &before); err != nil {
		return nil, err
	}

	// Recovery drill: SIGKILL, restart on the same snapshot and WAL. A
	// restart only reads them (replay re-solves the final matrix without
	// logging it again), so the drill repeats on identical state: a restart
	// of a tenth of a second is sampled until recoverBudget is spent, and
	// recover_s is the median of the samples.
	var recovers []float64
	for spent := time.Duration(0); len(recovers) == 0 || spent < recoverBudget; spent += took {
		s.w.close()
		s.d.kill()
		if s.d, took, err = startDaemon(bin, dir); err != nil {
			return nil, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		recovers = append(recovers, took.Seconds())
		s.w = newConn(s.d.url)
	}
	res.recoverS = median(recovers)
	res.attempted++
	if err := s.checkRecovered(dir, pl.final, &before); err != nil {
		res.fail("recovery: %v", err)
	}
	return res, nil
}

// timedPhase sends the plan's op list from the one closed-loop writer while
// the paced reader pulls the routing table on its own connection.
func (s *session) timedPhase(pl *plan) {
	res := s.res
	var mu sync.Mutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	rc := newConn(s.d.url)
	defer rc.close()
	wg.Add(1)
	go func() {
		defer wg.Done()
		readLoop(rc, pl.readPulls, stop, res, &mu)
	}()
	var paused time.Duration
	begin := time.Now()
	for i, o := range pl.ops {
		t0 := time.Now()
		var cong float64
		var err error
		switch o.kind {
		case opSubmit, opPatch:
			method := http.MethodPost
			if o.kind == opPatch {
				method = http.MethodPatch
			}
			var rep *demandReply
			if rep, err = s.mutate(method, o.body); err == nil {
				cong = rep.Congestion
			}
		case opFail, opRestore:
			cong, err = s.linkEvent(o.body)
		}
		lat := time.Since(t0)
		if err == nil && o.kind == opFail {
			// Output check between ops, taken out of the timed wall: the
			// re-optimised routing must carry nothing over the dead edge.
			v0 := time.Now()
			r, verr := s.fetchRouting()
			if verr == nil && usesEdge(r, o.edge) {
				verr = fmt.Errorf("routing still uses failed edge %d", o.edge)
			}
			err = verr
			paused += time.Since(v0)
		}
		mu.Lock()
		res.attempted++
		if err != nil {
			res.fail("op %d: %v", i, err)
		} else {
			res.cong = append(res.cong, cong)
			if o.gated {
				res.epochMs = append(res.epochMs, ms(lat))
			}
		}
		mu.Unlock()
	}
	res.wallS = (time.Since(begin) - paused).Seconds()
	res.ops = len(pl.ops)
	close(stop)
	wg.Wait()
}

// checkRecovered asserts that the restarted daemon is in the pre-kill state:
// same path-system hash, same link state, and — once the replayed matrix has
// solved — a routing that routes the last accepted demand exactly on live
// candidates of the installed system. (The weights need not equal the
// pre-kill ones: replay solves the final matrix cold, the pre-kill routing
// may be the tail of a delta chain.)
func (s *session) checkRecovered(dir string, final *demand.Demand, before *linksReply) error {
	deadline := time.Now().Add(opTimeout)
	for {
		var h healthReply
		if err := s.w.getJSON("/healthz", &h); err != nil {
			return err
		}
		if h.Epoch > 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replayed matrix not solved within %v", opTimeout)
		}
		time.Sleep(pollInterval)
	}
	var after linksReply
	if err := s.w.getJSON("/v1/links", &after); err != nil {
		return err
	}
	sort.Ints(after.FailedEdges)
	sort.Ints(before.FailedEdges)
	if after.Hash != before.Hash || after.Version != before.Version ||
		fmt.Sprint(after.FailedEdges) != fmt.Sprint(before.FailedEdges) {
		return fmt.Errorf("state differs: hash %s/%s version %d/%d failed %v/%v",
			before.Hash, after.Hash, before.Version, after.Version, before.FailedEdges, after.FailedEdges)
	}
	r, err := s.fetchRouting()
	if err != nil {
		return err
	}
	if err := routesExactly(s.g, r, final); err != nil {
		return err
	}
	if code, raw, err := s.w.do(http.MethodPost, "/v1/snapshot", nil); err != nil || code != http.StatusOK {
		return fmt.Errorf("snapshot: status %d err %v: %s", code, err, raw)
	}
	f, err := os.Open(filepath.Join(dir, "sys.snap"))
	if err != nil {
		return err
	}
	defer f.Close()
	snap, err := serial.DecodeSnapshot(f)
	if err != nil {
		return err
	}
	return onLiveCandidates(r, snap)
}

// checkSolvers confirms from the daemon's own epoch traces that the workload
// exercised the solver it exists to exercise; a miss counts as a failed op.
func checkSolvers(w *workload, r *roundResult) {
	total, match := 0, 0
	for _, t := range r.traces {
		if t.Solver == "" {
			continue
		}
		total++
		if t.Solver == w.solver {
			match++
		}
	}
	r.attempted++
	// At wan64-sparse's size the simplex gives up on about a tenth of the
	// matrices (iteration limit or numerical trouble) and core.Adapt hands
	// them to MWU, after the simplex has burnt its time on them; every ninth
	// patch epoch is a cold re-anchor by design.
	need := map[string]float64{"mwu": 1, "exact": 0.8, "delta-mwu": 0.8}[w.solver]
	if total == 0 || float64(match) < need*float64(total) {
		r.fail("solver check: %d of %d traced epochs solved by %s, need %.0f%%", match, total, w.solver, 100*need)
	}
}
