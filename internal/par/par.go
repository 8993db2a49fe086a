// Package par provides the small parallel-execution helpers used by the
// samplers and evaluators: a bounded worker pool over an index range, in the
// fixed-worker style recommended for Go services (share memory by
// communicating; a fixed number of goroutines drains one work channel).
package par

import (
	"runtime"
	"sync"
	"time"
)

// ForEach runs fn(i) for every i in [0, n) across min(GOMAXPROCS, n)
// goroutines and returns when all calls complete. fn must be safe to call
// concurrently for distinct indices; writes should go to per-index slots.
func ForEach(n int, fn func(i int)) {
	forEachWorkers(n, runtime.GOMAXPROCS(0), fn)
}

// forEachWorkers is ForEach with an explicit worker count.
func forEachWorkers(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	work := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range work {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
}

// Pool is a long-lived bounded worker pool with a bounded submission queue:
// the serving-side counterpart to ForEach. A fixed number of goroutines
// drains one work channel; submission is non-blocking so callers can shed
// load instead of queueing unboundedly. Close drains everything already
// accepted before returning, which is what a service's graceful shutdown
// needs.
type Pool struct {
	work   chan func()
	wg     sync.WaitGroup
	mu     sync.Mutex
	closed bool
}

// NewPool starts a pool of `workers` goroutines (minimum 1) with a
// submission queue of `queue` pending tasks (minimum 0: hand-off only).
func NewPool(workers, queue int) *Pool {
	if workers < 1 {
		workers = 1
	}
	if queue < 0 {
		queue = 0
	}
	p := &Pool{work: make(chan func(), queue)}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer p.wg.Done()
			for fn := range p.work {
				fn()
			}
		}()
	}
	return p
}

// TrySubmit offers fn to the pool without blocking. It returns false when
// the queue is full (back-pressure: the caller should shed the task) or the
// pool is closed.
func (p *Pool) TrySubmit(fn func()) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	select {
	case p.work <- fn:
		return true
	default:
		return false
	}
}

// Close stops accepting work, waits for every accepted task to finish, and
// returns. Safe to call more than once.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.work)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// Timed wraps fn for submission to a pool, stamping the moment of wrapping
// (≈ submission) and handing fn the elapsed queue wait when a worker finally
// runs it: the time spent queued behind other work, measured without
// changing the Submitter interface.
func Timed(fn func(queueWait time.Duration)) func() {
	submitted := time.Now()
	return func() { fn(time.Since(submitted)) }
}
