package service

import (
	"sync"
	"time"
)

// Admission control for the mutating surface. The solver needs no guard of
// its own: the one-slot epoch mailbox (putLocked) already bounds it to one
// solve in flight plus one pending, however fast mutations arrive, and on a
// shared fleet pool each engine waits its round-robin turn. What the mailbox
// cannot bound is the work every accepted mutation does before it reaches
// the slot, so two budgets guard that against a client that is fast rather
// than big:
//
//   - a token bucket bounds the sustained mutation rate (demand submits and
//     patches; link events are exempt — they are the remediation path an
//     operator needs exactly when the engine is drowning). Each accepted
//     mutation is fsynced to the write-ahead log before it supersedes
//     anything, so the bucket is what bounds the fsync rate and the log's
//     growth between checkpoints;
//
//   - an inflight-bytes budget bounds the request bodies being decoded at
//     once, so many concurrent medium-sized matrices cannot multiply into
//     the same OOM a single huge body would cause (the per-request cap is
//     Config.MaxBodyBytes, enforced with http.MaxBytesReader). Decoding
//     happens before the mailbox, so only this budget bounds its memory.
//
// Both shed with ErrRateLimited, which the HTTP layer maps to 429 plus a
// Retry-After hint: "you are over your budget, slow down". These are the
// engine's only load shedding: an accepted mutation is never dropped, only
// superseded in the epoch slot by a newer one.

// rateLimiter is a token bucket: capacity burst, refill rate tokens/second.
// The zero value (rate <= 0) admits everything.
type rateLimiter struct {
	rate  float64 // tokens per second; <= 0 disables
	burst float64

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// newRateLimiter builds a bucket that starts full. burst values below 1 are
// raised to 1: a bucket that can never hold a whole token admits nothing.
func newRateLimiter(rate float64, burst int) *rateLimiter {
	b := float64(burst)
	if b < 1 {
		b = 1
	}
	return &rateLimiter{rate: rate, burst: b, tokens: b}
}

// allow takes one token, reporting success and — on refusal — how long until
// the next token exists, the Retry-After hint.
func (l *rateLimiter) allow() (bool, time.Duration) {
	if l == nil || l.rate <= 0 {
		return true, 0
	}
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.last.IsZero() {
		l.tokens += float64(now.Sub(l.last).Seconds() * l.rate)
		if l.tokens > l.burst {
			l.tokens = l.burst
		}
	}
	l.last = now
	if l.tokens >= 1 {
		l.tokens--
		return true, 0
	}
	wait := time.Duration((1 - l.tokens) / l.rate * float64(time.Second))
	if wait < time.Second {
		// Retry-After carries whole seconds on the wire; never advertise 0.
		wait = time.Second
	}
	return false, wait
}

// byteBudget bounds the total request-body bytes admitted but not yet
// released. The zero value (max <= 0) admits everything.
type byteBudget struct {
	max int64 // <= 0 disables

	mu       sync.Mutex
	inflight int64
}

// acquire admits n bytes, or refuses when the budget would be exceeded. A
// single request larger than the whole budget is still admitted when nothing
// else is in flight — the per-request ceiling is MaxBodyBytes's job, and
// refusing it forever would turn a generous body cap into a deadlock.
func (b *byteBudget) acquire(n int64) bool {
	if b == nil || b.max <= 0 {
		return true
	}
	if n < 0 {
		n = 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.inflight > 0 && b.inflight+n > b.max {
		return false
	}
	b.inflight += n
	return true
}

// release returns n admitted bytes to the budget.
func (b *byteBudget) release(n int64) {
	if b == nil || b.max <= 0 {
		return
	}
	if n < 0 {
		n = 0
	}
	b.mu.Lock()
	b.inflight -= n
	if b.inflight < 0 {
		b.inflight = 0
	}
	b.mu.Unlock()
}

// admitted returns the bytes currently admitted against the budget.
func (b *byteBudget) admitted() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.inflight
}

// admitMutation is the engine-level admission check every demand mutation
// (submit or patch) passes before any state is touched or logged: the token
// bucket. On refusal it returns ErrRateLimited and the Retry-After hint.
func (e *Engine) admitMutation() (time.Duration, error) {
	if ok, wait := e.limiter.allow(); !ok {
		e.metrics.rateLimited.Add(1)
		e.metrics.shedRequests.Add(1)
		return wait, ErrRateLimited
	}
	return 0, nil
}
