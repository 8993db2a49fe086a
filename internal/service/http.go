package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"sparseroute/internal/demand"
	"sparseroute/internal/flow"
	"sparseroute/internal/graph"
	"sparseroute/internal/obs"
	"sparseroute/internal/serial"
)

// Server is the HTTP surface over an Engine.
//
//	POST /v1/demand        submit a demand epoch (the serial demand body);
//	                       ?wait=1 (any strconv boolean) blocks until the
//	                       epoch resolves; absent or ?wait=0 returns 202.
//	                       ?deadline=DURATION bounds that wait: past it the
//	                       reply is 504 "still solving" (without ?wait=1 it
//	                       changes nothing). An accepted epoch is solved
//	                       whatever the client does — waits past its
//	                       deadline, or disconnects. An epoch superseded
//	                       by a newer mutation before it solved resolves
//	                       (and ?wait=1 answers 200) with the covering
//	                       epoch's outcome
//	PATCH /v1/demand       submit per-pair deltas against the last submitted
//	                       matrix: {"set":[{"u":0,"v":3,"amount":2}],
//	                       "clear":[{"u":1,"v":2}]}. The merged matrix is the
//	                       next epoch; only the touched pairs are re-solved
//	                       when the link state still matches (409 before any
//	                       full submission). Same ?wait contract as POST
//	GET  /v1/paths         candidate paths + live rates for ?src=&dst=
//	GET  /v1/routing       the full active routing, encoded once per epoch
//	                       by its first reader and served to every later
//	                       one; carries a strong ETag, and an If-None-Match
//	                       naming it answers 304 with no body
//	POST /v1/links         apply a topology event: {"fail":[ids]},
//	                       {"restore":[ids]}, {"set":[ids]} (replace), or
//	                       {"edge":id,"capacity":c} (effective-capacity
//	                       override: 0 fails the edge, (0,1) degrades it,
//	                       >=1 restores full capacity)
//	GET  /v1/links         the current link state
//	POST /v1/snapshot      persist the path system to the snapshot file
//	GET  /debug/trace      recent epoch lifecycle traces, newest first
//	                       (?n= bounds the count), plus the in-flight MWU
//	                       progress when a solve is reporting
//	GET  /debug/events     the engine's event journal, oldest first
//	GET  /metrics          the engine's metrics as Prometheus text exposition:
//	                       counters, gauges, the path_system summary (its
//	                       hash and router as _info labels) and the
//	                       latency, congestion and queue-wait quantiles
//	                       over the epochs /debug/trace retains
//	GET  /healthz          ok / degraded (failed or capacity-degraded edges,
//	                       uncovered pairs) / 503 closed, plus the last epoch
//	                       outcome
//
// Every JSON reply is compact.
//
// Overload behavior: every POST/PATCH body is capped at Config.MaxBodyBytes
// (413 beyond it); demand mutations pass the engine's admission control —
// the token-bucket rate limit and the inflight-bytes budget shed with 429 +
// Retry-After — while GETs and link events are never shed. The only 503 a
// mutation can get is from a closed engine. An accepted mutation is never
// dropped; under a burst, pending epochs coalesce into the latest one.
type Server struct {
	engine       *Engine
	snapshotPath string
	maxBody      int64 // per-request body cap; <= 0 disables
	mux          *http.ServeMux
}

// NewServer wires the engine's handlers. snapshotPath may be empty, which
// disables POST /v1/snapshot.
func NewServer(e *Engine, snapshotPath string) *Server {
	s := &Server{engine: e, snapshotPath: snapshotPath, maxBody: e.cfg.MaxBodyBytes, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/demand", s.handleDemand(decodeSubmit))
	s.mux.HandleFunc("PATCH /v1/demand", s.handleDemand(decodePatch))
	s.mux.HandleFunc("GET /v1/paths", s.handlePaths)
	s.mux.HandleFunc("GET /v1/routing", s.handleRouting)
	s.mux.HandleFunc("POST /v1/links", s.handleLinks)
	s.mux.HandleFunc("GET /v1/links", s.handleLinksGet)
	s.mux.HandleFunc("POST /v1/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("GET /debug/trace", s.handleTrace)
	s.mux.HandleFunc("GET /debug/events", s.handleEvents)
	s.mux.HandleFunc("GET /metrics", s.handleProm)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// retryAfterSeconds renders a Retry-After header value: whole seconds,
// rounded up, never below 1 (a zero would tell clients to hammer).
func retryAfterSeconds(d time.Duration) string {
	s := int64((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return strconv.FormatInt(s, 10)
}

// limitBody caps r's body at the configured MaxBodyBytes. Reading past the
// cap yields an *http.MaxBytesError the decode paths map to 413.
func (s *Server) limitBody(w http.ResponseWriter, r *http.Request) {
	if s.maxBody > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	}
}

// bodyTooLarge detects the MaxBytesReader cap in a decode error and writes
// the 413, reporting whether it handled the error.
func (s *Server) bodyTooLarge(w http.ResponseWriter, err error) bool {
	var mbe *http.MaxBytesError
	if !errors.As(err, &mbe) {
		return false
	}
	s.engine.metrics.bodyTooLarge.Add(1)
	writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", mbe.Limit)
	return true
}

// acquireBody admits r's body against the engine's inflight-bytes budget,
// returning a release func, or writes the 429 and returns false. Bodies of
// unknown length (chunked encoding) are admitted — the MaxBytesReader cap
// still bounds each of them individually.
func (s *Server) acquireBody(w http.ResponseWriter, r *http.Request) (func(), bool) {
	n := r.ContentLength
	if n <= 0 {
		return func() {}, true
	}
	if !s.engine.inflight.acquire(n) {
		s.engine.metrics.inflightRejects.Add(1)
		s.engine.metrics.shedRequests.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "inflight request-body budget exhausted, retry shortly")
		return nil, false
	}
	return func() { s.engine.inflight.release(n) }, true
}

// writeSubmitError maps a demand-mutation error to its status: 429 with the
// Retry-After hint for a shed, 503 for a closed engine, 409 for a patch with
// no base, 500 for a WAL append or fsync failure, 400 otherwise.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	var shed *ShedError
	switch {
	case errors.As(err, &shed):
		w.Header().Set("Retry-After", retryAfterSeconds(shed.After))
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, errClosed):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, errNoBaseDemand):
		writeError(w, http.StatusConflict, "%v", err)
	case errors.Is(err, errWALCommit):
		writeError(w, http.StatusInternalServerError, "%v", err)
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

// demandResponse is the POST/PATCH /v1/demand reply.
type demandResponse struct {
	Epoch        uint64  `json:"epoch"`
	Solved       bool    `json:"solved"`
	Fallback     bool    `json:"fallback,omitempty"`
	Err          string  `json:"err,omitempty"`
	Congestion   float64 `json:"congestion,omitempty"`
	LatencyMS    float64 `json:"latency_ms,omitempty"`
	Retries      int     `json:"retries,omitempty"`
	Renormalized bool    `json:"renormalized,omitempty"`
	DroppedPairs int     `json:"dropped_pairs,omitempty"`
	// Warm tags the epoch's solve: "delta" or "cold" (see the warm_start
	// trace field). Only present on ?wait=1.
	Warm         string `json:"warm,omitempty"`
	TouchedPairs int    `json:"touched_pairs,omitempty"`
}

func outcomeResponse(out *Outcome) demandResponse {
	return demandResponse{
		Epoch:        out.Epoch,
		Solved:       out.OK,
		Fallback:     out.Fallback,
		Err:          out.Err,
		Congestion:   out.Congestion,
		LatencyMS:    float64(out.Latency.Microseconds()) / 1000,
		Retries:      out.Retries,
		Renormalized: out.Renormalized,
		DroppedPairs: out.DroppedPairs,
		Warm:         out.Warm,
		TouchedPairs: out.TouchedPairs,
	}
}

// handleDemand is the one body of POST and PATCH /v1/demand: the two differ
// only in how the request body decodes into a demand record, which the
// engine's accept step then interprets.
func (s *Server) handleDemand(decode func(io.Reader) (*walOp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// Parse ?wait and ?deadline before submitting so a malformed value
		// cannot consume an epoch. Absent wait means no wait; anything else
		// must be a strconv boolean ("0"/"false" really means don't wait).
		wait := false
		if wp := r.URL.Query().Get("wait"); wp != "" {
			var err error
			wait, err = strconv.ParseBool(wp)
			if err != nil {
				writeError(w, http.StatusBadRequest, "wait must be a boolean, got %q", wp)
				return
			}
		}
		var deadline time.Duration
		if dp := r.URL.Query().Get("deadline"); dp != "" {
			var err error
			deadline, err = time.ParseDuration(dp)
			if err != nil || deadline <= 0 {
				writeError(w, http.StatusBadRequest, "deadline must be a positive duration, got %q", dp)
				return
			}
		}
		s.limitBody(w, r)
		release, ok := s.acquireBody(w, r)
		if !ok {
			return
		}
		defer release()
		op, err := decode(r.Body)
		if err != nil {
			if s.bodyTooLarge(w, err) {
				return
			}
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		epoch, err := s.engine.acceptDemand(r.Context(), op)
		if err != nil {
			s.writeSubmitError(w, err)
			return
		}
		if !wait {
			writeJSON(w, http.StatusAccepted, demandResponse{Epoch: epoch})
			return
		}
		ctx := r.Context()
		if deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, deadline)
			defer cancel()
		}
		s.waitAndReply(ctx, w, epoch)
	}
}

// decodeSubmit reads a POST /v1/demand body (the serial demand format) into a
// submit record.
func decodeSubmit(r io.Reader) (*walOp, error) {
	d, err := serial.DecodeDemand(r)
	if err != nil {
		return nil, err
	}
	return submitOp(d), nil
}

// decodePatch reads a PATCH /v1/demand body — per-pair deltas merged into
// the last submitted matrix: set assigns d(u,v) = amount for each entry,
// clear removes the pair — into a patch record.
func decodePatch(r io.Reader) (*walOp, error) {
	var req struct {
		Set   []PairAmount `json:"set"`
		Clear []PairRef    `json:"clear"`
	}
	if err := json.NewDecoder(r).Decode(&req); err != nil {
		return nil, fmt.Errorf("decoding demand patch: %w", err)
	}
	return &walOp{Op: walOpPatch, Set: req.Set, Clear: req.Clear}, nil
}

// waitAndReply blocks on the epoch's outcome until ctx expires and writes
// the full reply (the ?wait=1 tail shared by POST and PATCH /v1/demand). An
// expired wait answers 504; the epoch itself still solves.
func (s *Server) waitAndReply(ctx context.Context, w http.ResponseWriter, epoch uint64) {
	out, err := s.engine.Wait(ctx, epoch)
	if errors.Is(err, errUnknownEpoch) {
		// The outcome was evicted before we could wait on it (possible only
		// under extreme epoch churn).
		writeError(w, http.StatusGone, "%v", err)
		return
	}
	if err != nil {
		writeError(w, http.StatusGatewayTimeout, "epoch %d still solving: %v", epoch, err)
		return
	}
	writeJSON(w, http.StatusOK, outcomeResponse(out))
}

// pathsResponse is the GET /v1/paths reply: every candidate of the pair with
// the rate the active routing currently sends over it.
type pathsResponse struct {
	Src   int            `json:"src"`
	Dst   int            `json:"dst"`
	Epoch uint64         `json:"epoch"`
	Paths []pathWithRate `json:"paths"`
}

type pathWithRate struct {
	Edges    []int   `json:"edges"`
	Vertices []int   `json:"vertices"`
	Rate     float64 `json:"rate"`
}

func (s *Server) handlePaths(w http.ResponseWriter, r *http.Request) {
	src, err1 := strconv.Atoi(r.URL.Query().Get("src"))
	dst, err2 := strconv.Atoi(r.URL.Query().Get("dst"))
	if err1 != nil || err2 != nil {
		writeError(w, http.StatusBadRequest, "src and dst must be integers")
		return
	}
	g := s.engine.System().Graph()
	n := g.NumVertices()
	if src < 0 || src >= n || dst < 0 || dst >= n || src == dst {
		writeError(w, http.StatusBadRequest, "need 0 <= src != dst < %d", n)
		return
	}
	candidates := s.engine.System().Unique(src, dst)
	if len(candidates) == 0 {
		if len(s.engine.installedSystem().Unique(src, dst)) > 0 {
			writeError(w, http.StatusNotFound,
				"all candidate paths for pair (%d,%d) are down (failed edges)", src, dst)
			return
		}
		writeError(w, http.StatusNotFound, "no candidate paths for pair (%d,%d)", src, dst)
		return
	}
	// Rates come from the lock-free active state; zero before any epoch or
	// for candidates the current adaptation leaves idle. Routed paths and
	// candidates are both oriented from src, so a rate belongs to the
	// candidate with equal edge IDs.
	fromSrc := func(p graph.Path) graph.Path {
		if p.Src != src {
			return p.Reverse()
		}
		return p
	}
	resp := pathsResponse{Src: src, Dst: dst}
	var routed []flow.WeightedPath
	if st := s.engine.Active(); st != nil {
		resp.Epoch = st.Epoch
		for _, wp := range st.Routing[demand.MakePair(src, dst)] {
			wp.Path = fromSrc(wp.Path)
			routed = append(routed, wp)
		}
	}
	for _, p := range candidates {
		q := fromSrc(p)
		vs, err := q.Vertices(g)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "corrupt candidate: %v", err)
			return
		}
		var rate float64
		for _, wp := range routed {
			if slices.Equal(wp.Path.EdgeIDs, q.EdgeIDs) {
				rate += wp.Weight
			}
		}
		ids := q.EdgeIDs
		if ids == nil {
			ids = []int{}
		}
		resp.Paths = append(resp.Paths, pathWithRate{Edges: ids, Vertices: vs, Rate: rate})
	}
	writeJSON(w, http.StatusOK, resp)
}

// routingReply returns the GET /v1/routing body of st —
// {"epoch":…,"congestion":…,"routing":{"pairs":[…]}} in compact JSON — and
// its strong ETag, the quoted FNV-64a of the body. The first caller for an
// epoch (publish's render, for a published state) encodes both; every later
// one reads them back.
func (st *State) routingReply() ([]byte, string, error) {
	m := &st.reply
	m.once.Do(func() {
		defer m.ready.Store(true)
		cong, err := json.Marshal(st.Congestion)
		if err != nil {
			m.err = err
			return
		}
		b := strconv.AppendUint([]byte(`{"epoch":`), st.Epoch, 10)
		b = append(append(b, `,"congestion":`...), cong...)
		if b, err = serial.AppendRouting(append(b, `,"routing":`...), st.Routing); err != nil {
			m.err = err
			return
		}
		m.body = append(b, '}')
		h := fnv.New64a()
		h.Write(m.body)
		m.etag = fmt.Sprintf(`"%016x"`, h.Sum64())
	})
	return m.body, m.etag, m.err
}

// handleRouting writes the active epoch's memoized reply, or a bodiless 304
// when If-None-Match already names its ETag.
func (s *Server) handleRouting(w http.ResponseWriter, r *http.Request) {
	st := s.engine.Active()
	if st == nil {
		writeError(w, http.StatusNotFound, "no epoch solved yet")
		return
	}
	body, etag, err := st.routingReply()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding epoch %d routing: %v", st.Epoch, err)
		return
	}
	h := w.Header()
	h.Set("ETag", etag)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagListed(inm, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h.Set("Content-Type", "application/json; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// etagListed reports whether an If-None-Match value is "*" or lists etag.
// If-None-Match compares weakly, so a W/ prefix on a listed tag is ignored.
func etagListed(inm, etag string) bool {
	for _, t := range strings.Split(inm, ",") {
		if t = strings.TrimPrefix(strings.TrimSpace(t), "W/"); t == etag || t == "*" {
			return true
		}
	}
	return false
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.snapshotPath == "" {
		writeError(w, http.StatusBadRequest, "no snapshot path configured (start with --snapshot)")
		return
	}
	n, ls, err := s.engine.checkpoint(s.snapshotPath)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"path":  s.snapshotPath,
		"bytes": n,
		"hash":  fmt.Sprintf("%016x", ls.digest(s.engine.pairs)),
	})
}

// linksRequest is the POST /v1/links body. Exactly one of Set, a capacity
// override (Edge+Capacity together), or any combination of Fail/Restore, may
// be used per event.
type linksRequest struct {
	Fail     []int    `json:"fail"`
	Restore  []int    `json:"restore"`
	Set      []int    `json:"set"`
	Edge     *int     `json:"edge"`
	Capacity *float64 `json:"capacity"`
}

// linksResponse reports the applied (or current) link state.
type linksResponse struct {
	Version        uint64         `json:"version"`
	FailedEdges    []int          `json:"failed_edges"`
	DegradedEdges  []EdgeCapacity `json:"degraded_edges,omitempty"`
	UncoveredPairs int            `json:"uncovered_pairs"`
	AtRiskPairs    int            `json:"at_risk_pairs,omitempty"`
	RecoveredPairs int            `json:"recovered_pairs,omitempty"`
	RecoveryPaths  int            `json:"recovery_paths,omitempty"`
	ProactivePairs int            `json:"proactive_pairs,omitempty"`
	ProactivePaths int            `json:"proactive_paths,omitempty"`
	Status         string         `json:"status"`
	Hash           string         `json:"hash"`
}

// linksJSON renders u with the hash of the link state it reports, read on
// first use as Hash reads it.
func (s *Server) linksJSON(u *LinkUpdate) linksResponse {
	status := HealthOK
	if u.Degraded {
		status = HealthDegraded
	}
	return linksResponse{
		Version:        u.Version,
		FailedEdges:    u.FailedEdges,
		DegradedEdges:  u.DegradedEdges,
		UncoveredPairs: u.UncoveredPairs,
		AtRiskPairs:    u.AtRiskPairs,
		RecoveredPairs: u.RecoveredPairs,
		RecoveryPaths:  u.RecoveryPaths,
		ProactivePairs: u.ProactivePairs,
		ProactivePaths: u.ProactivePaths,
		Status:         status,
		Hash:           fmt.Sprintf("%016x", u.links.digest(s.engine.pairs)),
	}
}

func (s *Server) handleLinks(w http.ResponseWriter, r *http.Request) {
	// Link events are body-capped like every mutation but never admission-
	// gated: repairing the topology is how an operator recovers an engine
	// that is shedding demand mutations.
	s.limitBody(w, r)
	var req linksRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		if s.bodyTooLarge(w, err) {
			return
		}
		writeError(w, http.StatusBadRequest, "decoding link event: %v", err)
		return
	}
	capEvent := req.Edge != nil || req.Capacity != nil
	if capEvent && (req.Edge == nil || req.Capacity == nil) {
		writeError(w, http.StatusBadRequest, "capacity event needs both edge and capacity")
		return
	}
	kinds := 0
	if req.Set != nil {
		kinds++
	}
	if req.Fail != nil || req.Restore != nil {
		kinds++
	}
	if capEvent {
		kinds++
	}
	if kinds > 1 {
		writeError(w, http.StatusBadRequest, "use exactly one of set, fail/restore, or edge+capacity")
		return
	}
	if kinds == 0 {
		writeError(w, http.StatusBadRequest, "link event needs fail, restore, set, or edge+capacity")
		return
	}
	var op *walOp
	switch {
	case capEvent:
		op = &walOp{Op: walOpLinks, Caps: []EdgeCapacity{{Edge: *req.Edge, Capacity: *req.Capacity}}}
	case req.Set != nil:
		op = &walOp{Op: walOpLinks, Fail: req.Set, Replace: true}
	default:
		op = &walOp{Op: walOpLinks, Fail: req.Fail, Restore: req.Restore}
	}
	update, err := s.engine.applyLinkEvent(op)
	switch {
	case errors.Is(err, errUnknownEdge), errors.Is(err, errBadCapacity):
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	case errors.Is(err, errClosed):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, s.linksJSON(update))
}

func (s *Server) handleLinksGet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.linksJSON(reportLinks(s.engine.links.Load())))
}

// traceResponse is the GET /debug/trace reply.
type traceResponse struct {
	// Traces lists retained epoch lifecycle records, newest first.
	Traces []*obs.EpochTrace `json:"traces"`
	// InFlight is the progress of a currently running MWU solve, if one is
	// reporting.
	InFlight *obs.SolveProgress `json:"in_flight,omitempty"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	n := 0
	if np := r.URL.Query().Get("n"); np != "" {
		var err error
		n, err = strconv.Atoi(np)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "n must be a non-negative integer, got %q", np)
			return
		}
	}
	tr := s.engine.Tracer()
	writeJSON(w, http.StatusOK, traceResponse{Traces: tr.Traces(n), InFlight: tr.Progress()})
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"events": s.engine.Events()})
}

// handleProm serves the engine's registry as Prometheus text exposition.
func (s *Server) handleProm(w http.ResponseWriter, r *http.Request) {
	p := obs.NewProm()
	p.FromVars("sparseroute_engine", nil, s.engine.Metrics().Vars())
	w.Header().Set("Content-Type", obs.PromContentType)
	p.WriteTo(w)
}

// handleHealth serves the engine's state machine: 200 "ok", 200 "degraded"
// (still serving, with the failed-edge list and uncovered-pair count an
// operator needs), or 503 "closed" once the engine stops accepting work. The
// last epoch outcome is surfaced so a fallback-serving engine is visible
// here rather than hiding behind an unconditional "ok".
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := s.engine.Health()
	code := http.StatusOK
	if h.Status == HealthClosed {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// SnapshotToFile atomically writes the engine's snapshot to path (temp file
// + fsync + rename + directory fsync), returning the byte count. On any
// error after the temp file is created — write, sync, stat, close, or rename
// — the temp file is removed so failed snapshots never litter the directory.
//
// When the engine has a WAL, this is the checkpoint operation: the snapshot
// and the log rewrite happen under e.mu (blocking every mutation), so the
// snapshot's WAL watermark is exact and no operation can land between the
// snapshot and the rewrite and be lost.
func (e *Engine) SnapshotToFile(path string) (int64, error) {
	n, _, err := e.checkpoint(path)
	return n, err
}

// checkpoint is SnapshotToFile, also returning the link state the snapshot
// holds.
func (e *Engine) checkpoint(path string) (int64, *linkState, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ls := e.links.Load()
	n, err := writeFileAtomic(path, e.writeSnapshot)
	if err != nil {
		return 0, ls, err
	}
	return n, ls, e.resetWALLocked()
}

// fsyncFile is the file-durability seam writeFileAtomic flushes through;
// tests substitute a failing implementation to drive the error paths.
var fsyncFile = func(f *os.File) error { return f.Sync() }

// writeFileAtomic writes via a temp file in path's directory and renames it
// into place, removing the temp file on every failure path. The temp file is
// fsynced before the rename and the directory after it: without the first, a
// crash shortly after "success" can surface an empty or partial file behind
// the new name; without the second, the rename itself may not survive — the
// old directory entry comes back and the snapshot silently time-travels.
func writeFileAtomic(path string, write func(io.Writer) error) (n int64, err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snapshot-*")
	if err != nil {
		return 0, err
	}
	name := tmp.Name()
	renamed := false
	defer func() {
		if !renamed {
			os.Remove(name)
		}
	}()
	if err := write(tmp); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := fsyncFile(tmp); err != nil {
		tmp.Close()
		return 0, err
	}
	info, err := tmp.Stat()
	if err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(name, path); err != nil {
		return 0, err
	}
	renamed = true
	if d, err := os.Open(dir); err == nil {
		syncErr := fsyncFile(d)
		d.Close()
		if syncErr != nil {
			return info.Size(), syncErr
		}
	}
	return info.Size(), nil
}
