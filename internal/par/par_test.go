package par

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversAllIndices(t *testing.T) {
	const n = 1000
	hits := make([]int32, n)
	ForEach(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
}

func TestForEachZeroAndNegative(t *testing.T) {
	called := false
	ForEach(0, func(int) { called = true })
	ForEach(-3, func(int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}

func TestForEachWorkersSingle(t *testing.T) {
	order := make([]int, 0, 5)
	forEachWorkers(5, 1, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("single-worker execution out of order: %v", order)
		}
	}
}

func TestForEachWorkersMoreWorkersThanItems(t *testing.T) {
	var count int64
	forEachWorkers(3, 100, func(int) { atomic.AddInt64(&count, 1) })
	if count != 3 {
		t.Fatalf("count=%d", count)
	}
}

func TestPoolRunsAllAcceptedTasks(t *testing.T) {
	p := NewPool(4, 16)
	var count int64
	for i := 0; i < 100; i++ {
		for !p.TrySubmit(func() { atomic.AddInt64(&count, 1) }) {
			// Queue full: back-pressure. Spin until accepted.
		}
	}
	p.Close()
	if count != 100 {
		t.Fatalf("count=%d, want 100", count)
	}
}

func TestPoolCloseDrainsInFlight(t *testing.T) {
	p := NewPool(2, 8)
	var done int64
	release := make(chan struct{})
	var accepted int
	for i := 0; i < 6; i++ {
		if p.TrySubmit(func() {
			<-release
			atomic.AddInt64(&done, 1)
		}) {
			accepted++
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.Close() // Must block until every accepted task ran.
	}()
	close(release)
	wg.Wait()
	if int(done) != accepted {
		t.Fatalf("done=%d accepted=%d", done, accepted)
	}
}

func TestPoolRejectsAfterClose(t *testing.T) {
	p := NewPool(1, 1)
	p.Close()
	if p.TrySubmit(func() {}) {
		t.Fatal("submit after close should fail")
	}
	p.Close() // Idempotent.
}

func TestPoolRejectsWhenQueueFull(t *testing.T) {
	p := NewPool(1, 0)
	block := make(chan struct{})
	// Occupy the single worker.
	for !p.TrySubmit(func() { <-block }) {
	}
	// Worker busy, zero queue: next submit must be shed.
	rejected := false
	for i := 0; i < 100; i++ {
		if !p.TrySubmit(func() {}) {
			rejected = true
			break
		}
	}
	close(block)
	p.Close()
	if !rejected {
		t.Fatal("expected back-pressure rejection with a full queue")
	}
}

func TestTimedMeasuresQueueWait(t *testing.T) {
	var got time.Duration
	fn := Timed(func(w time.Duration) { got = w })
	time.Sleep(20 * time.Millisecond)
	fn()
	if got < 15*time.Millisecond {
		t.Fatalf("queue wait %v, want >= ~20ms", got)
	}
}

func TestTimedThroughPool(t *testing.T) {
	p := NewPool(1, 4)
	defer p.Close()
	block := make(chan struct{})
	if !p.TrySubmit(func() { <-block }) {
		t.Fatal("submit blocker")
	}
	waited := make(chan time.Duration, 1)
	if !p.TrySubmit(Timed(func(w time.Duration) { waited <- w })) {
		t.Fatal("submit timed task")
	}
	time.Sleep(30 * time.Millisecond)
	close(block)
	if w := <-waited; w < 20*time.Millisecond {
		t.Fatalf("queue wait %v, want >= ~30ms behind the blocker", w)
	}
}
