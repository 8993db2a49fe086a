package service

import (
	"sync"
	"time"
)

// breaker is the solver circuit breaker: a three-state machine that stops
// accepting demand mutations when the solver itself is the problem.
//
// Admission control sheds load the engine could not keep up with; the
// breaker handles the orthogonal failure where the engine keeps up fine but
// every solve fails — a poisoned solver (panicking stage, numerically dead
// LP, a deadline the topology can never meet). Without it each doomed epoch
// still burns a full solve ladder on a shared worker, so
// a fleet with one poisoned shard quietly loses solver capacity for every
// healthy tenant. K consecutive counted failures open the breaker: reads
// keep serving the last-known-good routing, mutations are rejected with
// ErrBreakerOpen for a cooldown, then a half-open probe admits exactly one
// mutation — success closes the breaker, failure re-opens it for another
// cooldown. Link events are never breaker-gated: repairing the topology is
// how an operator un-poisons a solver that failures degraded.
//
// Counted failures are solve errors, missed deadlines, and solver panics.
// Cancellations from engine shutdown and client-abandoned epochs are
// neutral: they say nothing about solver health.
type breaker struct {
	threshold int           // consecutive failures that open; <= 0 disables
	cooldown  time.Duration // open duration before the half-open probe
	// transition observes state changes (journal + metrics). Called outside
	// the breaker lock; must not call back into the breaker.
	transition func(from, to, reason string)

	mu       sync.Mutex
	state    int
	failures int // consecutive counted failures while closed
	openedAt time.Time
	probing  bool // the half-open probe slot is taken
}

// Breaker states. The numeric values are the breaker_state gauge: a
// Prometheus alert on `breaker_state > 0` catches both open and half-open.
const (
	breakerClosed   = 0
	breakerOpen     = 1
	breakerHalfOpen = 2
)

// breakerStateName names a state for /healthz and the journal.
func breakerStateName(s int) string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

func (b *breaker) enabled() bool { return b != nil && b.threshold > 0 }

// setLocked moves to state, returning the transition callback invocation the
// caller fires after unlocking (nil when the state did not change).
func (b *breaker) setLocked(state int, reason string) func() {
	if b.state == state {
		return nil
	}
	from, to := breakerStateName(b.state), breakerStateName(state)
	b.state = state
	cb := b.transition
	if cb == nil {
		return nil
	}
	return func() { cb(from, to, reason) }
}

// allow reports whether a mutation may proceed and — on refusal — how long
// the caller should wait before retrying. An open breaker whose cooldown has
// elapsed half-opens here and admits the caller as the probe.
func (b *breaker) allow() (bool, time.Duration) {
	if !b.enabled() {
		return true, 0
	}
	var fire func()
	b.mu.Lock()
	defer func() {
		b.mu.Unlock()
		if fire != nil {
			fire()
		}
	}()
	switch b.state {
	case breakerClosed:
		return true, 0
	case breakerOpen:
		remaining := b.cooldown - time.Since(b.openedAt)
		if remaining > 0 {
			return false, remaining
		}
		fire = b.setLocked(breakerHalfOpen, "cooldown elapsed")
		b.probing = true
		return true, 0
	default: // half-open: one probe at a time
		if b.probing {
			return false, time.Second
		}
		b.probing = true
		return true, 0
	}
}

// onSuccess records a counted success: the failure streak resets, and a
// non-closed breaker closes (the probe — or a straggler epoch accepted before
// the breaker opened — proved the solver healthy).
func (b *breaker) onSuccess() {
	if !b.enabled() {
		return
	}
	var fire func()
	b.mu.Lock()
	b.failures = 0
	if b.state != breakerClosed {
		fire = b.setLocked(breakerClosed, "solve succeeded")
		b.probing = false
	}
	b.mu.Unlock()
	if fire != nil {
		fire()
	}
}

// onFailure records a counted failure: the streak grows toward the threshold
// while closed, and a half-open breaker re-opens for another cooldown. A
// failure landing while already open (a straggler epoch accepted before the
// breaker tripped) does not refresh the cooldown — under a stream of link
// re-adapts that would postpone the probe forever.
func (b *breaker) onFailure() {
	if !b.enabled() {
		return
	}
	var fire func()
	b.mu.Lock()
	switch b.state {
	case breakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			fire = b.setLocked(breakerOpen, "failure threshold reached")
			b.openedAt = time.Now()
		}
	case breakerHalfOpen:
		fire = b.setLocked(breakerOpen, "probe failed")
		b.openedAt = time.Now()
		b.probing = false
	}
	b.mu.Unlock()
	if fire != nil {
		fire()
	}
}

// onNeutral records an outcome that says nothing about solver health (engine
// shutdown, client-abandoned epoch, a probe that was admitted but never
// accepted): the half-open probe slot is released so the next mutation can
// probe instead.
func (b *breaker) onNeutral() {
	if !b.enabled() {
		return
	}
	b.mu.Lock()
	if b.state == breakerHalfOpen {
		b.probing = false
	}
	b.mu.Unlock()
}

// snapshot returns the current state code (the breaker_state gauge value).
func (b *breaker) snapshot() int {
	if !b.enabled() {
		return breakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// stateName names the current state for /healthz; "" when disabled.
func (b *breaker) stateName() string {
	if !b.enabled() {
		return ""
	}
	return breakerStateName(b.snapshot())
}
