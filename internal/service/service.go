// Package service is the online routing engine: the long-running serving
// form of the paper's protocol. The offline phase (sample a sparse path
// system from a competitive oblivious routing) runs once at startup — or is
// skipped entirely by restoring a snapshot — and the online phase becomes an
// epoch loop: demand matrices arrive over HTTP, the latest one is adapted on
// the engine's solver task, and the resulting routing is published behind an
// atomic pointer so path lookups stay lock-free while the next epoch solves.
//
// This is the SMORE/Kulfi semi-oblivious TE loop as a subsystem: paths are
// installed once (switch state is expensive), sending rates re-optimize per
// epoch (rate updates are cheap), and a solve that fails or blows its
// deadline falls back to the last good routing instead of blocking reads.
//
// Every accepted demand mutation is logged, then solved or superseded by a
// later one: the engine holds one pending epoch, and only the latest demand
// is ever solved. Nothing accepted is dropped, so the routing a live engine
// serves is the one a replay of its snapshot and write-ahead log serves.
// Overload is shed only before acceptance, by the budgets in admission.go.
//
// The package deliberately uses only the standard library: net/http for the
// surface, an expvar.Map as the metrics store that /metrics renders,
// internal/par for the worker pool, internal/serial for snapshots,
// internal/stats for latency quantiles.
package service

import (
	"errors"
	"math"
	"time"

	"sparseroute/internal/core"
	"sparseroute/internal/graph"
	"sparseroute/internal/oblivious"
	"sparseroute/internal/obs"
	"sparseroute/internal/par"
	"sparseroute/internal/wal"
)

// Config parameterizes an Engine.
type Config struct {
	// Graph is the topology to serve. Required.
	Graph *graph.Graph
	// Router is the oblivious routing to sample from. Required unless
	// System is set (snapshot restore).
	Router oblivious.Router
	// RouterName is recorded in snapshots and metrics (metadata only).
	RouterName string
	// System, when non-nil, is a pre-built startup path system (typically
	// a snapshot's, set by Restore): startup skips resampling entirely, and
	// every link state is derived from it. When nil, startup samples every
	// vertex pair.
	System *core.PathSystem
	// R is the per-pair sample count (Definition 5.2). Default 4.
	R int
	// Seed drives the sampling.
	Seed uint64
	// Workers has no effect on an engine: it solves one epoch at a time by
	// construction (only the latest demand is ever solved). It is kept for
	// callers that still set it; the fleet's shared pool is sized by
	// fleet.Config.Workers.
	Workers int
	// Pool, when non-nil, is the submission queue the engine's solver task
	// runs on — typically a par.FairQueue drawing on a pool of workers
	// shared across a fleet of engines, so one hot tenant cannot starve its
	// siblings. The engine submits at most one task at a time. It owns the
	// handle: Close closes it (draining this engine's task) without touching
	// the shared workers. When nil the engine starts a private one-worker
	// par.Pool.
	Pool par.Submitter
	// SolveDeadline bounds one epoch's solve; on expiry the solve is
	// canceled (the solvers poll their context, so the worker is freed
	// promptly instead of burning CPU on a result nobody will use) and the
	// engine keeps the last good routing, counting a fallback. 0 disables
	// the deadline.
	SolveDeadline time.Duration
	// OutcomeHistory bounds the retained epoch outcomes Wait can still
	// resolve (older ones are evicted oldest-first). Default 128; raise it on
	// long-running daemons whose clients wait on epochs submitted long ago.
	OutcomeHistory int
	// TraceDepth bounds the per-engine ring of epoch lifecycle traces served
	// on /debug/trace, which is also the window the latency, congestion and
	// queue-wait quantiles on /metrics cover. Default 256.
	TraceDepth int
	// SlowSolveThreshold makes epochs whose total (solve + publish) time
	// crosses it emit one structured log line and count in slow_solves. 0
	// disables the log.
	SlowSolveThreshold time.Duration
	// Journal, when non-nil, is a shared event journal the engine records
	// into instead of creating its own — a fleet passes one journal to every
	// shard so the record survives shard eviction and /debug/events reads a
	// single time-ordered stream.
	Journal *obs.Journal
	// JournalShard tags this engine's journal entries (the fleet's topology
	// ID). Empty for a standalone engine.
	JournalShard string
	// WAL, when non-nil, is the engine's write-ahead state log: every
	// accepted mutation (demand submit, patch, link/capacity event) is
	// appended as it is applied and fsynced before it is acknowledged or
	// served, so a crash between snapshots loses nothing a client was
	// acknowledged for. The caller
	// owns the log's lifecycle (the engine never closes it). See
	// Engine.ReplayWAL for recovery.
	WAL *wal.Log
	// CheckpointEvery, when positive and CheckpointPath is set, triggers an
	// automatic checkpoint (snapshot + WAL truncation) after that many
	// logged operations, bounding both replay time and log growth.
	CheckpointEvery int
	// CheckpointPath is where automatic checkpoints write their snapshot.
	CheckpointPath string
	// MutationRate, when positive, bounds the sustained rate (ops/second) of
	// accepted demand mutations — submits and patches — through a token
	// bucket; excess is shed with ErrRateLimited before anything is logged or
	// applied (HTTP 429 + Retry-After). The epoch mailbox already bounds the
	// solver; this bounds the WAL fsyncs and log growth every accepted
	// mutation costs. Link events are exempt: topology repair must stay
	// possible while the engine sheds. 0 disables.
	MutationRate float64
	// MutationBurst is the token-bucket depth: mutations that may land
	// back-to-back before MutationRate bites. Default ceil(MutationRate),
	// minimum 1.
	MutationBurst int
	// MaxInflightBytes, when positive, bounds the total request-body bytes
	// the HTTP layer holds in decode concurrently; excess requests are shed
	// with 429 + Retry-After. Guards against many medium-sized matrices
	// aggregating into the OOM a single huge body (MaxBodyBytes) would cause;
	// bodies are decoded before the epoch mailbox, so nothing else bounds
	// that memory. 0 disables.
	MaxInflightBytes int64
	// MaxBodyBytes caps one HTTP request body (http.MaxBytesReader on every
	// POST/PATCH); larger bodies get 413. Default 8 MiB; negative disables
	// the cap.
	MaxBodyBytes int64
}

// Fixed engine parameters.
const (
	// warmMaxDrift guards the delta fast path against CUMULATIVE demand
	// drift: an epoch solves incrementally only while the L1 distance
	// between its matrix and the matrix of the last cold solve in the delta
	// chain (the drift anchor) is at most warmMaxDrift times the new
	// matrix's total demand. Delta epochs keep untouched placements frozen,
	// so their quality decays with drift since the last fresh solve —
	// crossing the guard forces a cold re-solve that resets the anchor.
	warmMaxDrift = 0.1
	// warmMaxStreak caps the consecutive delta epochs a chain may run before
	// a cold re-solve re-anchors it. Each delta step re-places its touched
	// pairs against a frozen background, so chain error can grow with length
	// even when the net L1 drift cancels out under warmMaxDrift.
	warmMaxStreak = 8
	// warmIterations is the MWU round budget of a delta solve over its
	// touched pairs: a quarter of the cold default, which is where delta
	// epochs buy their latency.
	warmIterations = 64
	// journalDepth bounds an engine's private event journal, the one it
	// records into when Config.Journal is nil.
	journalDepth = 256
)

func (c Config) withDefaults() Config {
	if c.R <= 0 {
		c.R = 4
	}
	if c.TraceDepth <= 0 {
		c.TraceDepth = 256
	}
	if c.OutcomeHistory <= 0 {
		c.OutcomeHistory = 128
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MutationRate > 0 && c.MutationBurst <= 0 {
		c.MutationBurst = int(math.Ceil(c.MutationRate))
	}
	return c
}

// errClosed is returned by every mutation — SubmitDemandCtx,
// PatchDemandCtx, FailEdges, RestoreEdges — after Close.
var errClosed = errors.New("service: engine closed")

// errUnknownEpoch is returned by Wait for an epoch the engine cannot resolve:
// never assigned (0, or beyond the last submission) or already evicted from
// the bounded outcome history. Waiting on such an epoch would otherwise block
// until the caller's context expired.
var errUnknownEpoch = errors.New("service: unknown epoch")

// errUnknownEdge is returned by a link event (FailEdges, RestoreEdges, POST
// /v1/links) naming an edge ID outside the topology.
var errUnknownEdge = errors.New("service: unknown edge")

// errBadCapacity is returned by a link event whose capacity multiplier is
// negative or non-finite.
var errBadCapacity = errors.New("service: bad capacity multiplier")

// errWALCommit wraps every failure to append a record to the WAL or to make
// it durable: the server failed, not the request (HTTP 500).
var errWALCommit = errors.New("service: wal commit")

// errNoBaseDemand is returned by PatchDemandCtx when no full demand matrix has
// been submitted yet: a delta needs a base to apply to (HTTP 409).
var errNoBaseDemand = errors.New("service: no base demand to patch (submit a full matrix first)")

// ErrRateLimited is returned by the demand-mutation paths when the
// token-bucket rate limit (Config.MutationRate) or the inflight-bytes budget
// sheds the request: the caller is over its budget and should back off (HTTP
// 429 + Retry-After).
var ErrRateLimited = errors.New("service: mutation rate limit exceeded")

// ShedError wraps an admission rejection (ErrRateLimited) with the retry
// hint the HTTP layer serializes as the Retry-After header. errors.Is sees
// through it to the wrapped sentinel.
type ShedError struct {
	Err   error
	After time.Duration
}

func (e *ShedError) Error() string { return e.Err.Error() }

func (e *ShedError) Unwrap() error { return e.Err }
