package stats

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestMeanMaxMin(t *testing.T) {
	xs := []float64{3, 1, 2}
	if Mean(xs) != 2 || Max(xs) != 3 || Min(xs) != 1 {
		t.Fatalf("mean=%v max=%v min=%v", Mean(xs), Max(xs), Min(xs))
	}
	if Mean(nil) != 0 || Max(nil) != 0 || Min(nil) != 0 {
		t.Fatal("empty inputs should give 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if q := Quantile(xs, 0); q != 1 {
		t.Fatalf("q0=%v", q)
	}
	if q := Quantile(xs, 1); q != 4 {
		t.Fatalf("q1=%v", q)
	}
	if q := Quantile(xs, 0.5); math.Abs(q-2.5) > 1e-12 {
		t.Fatalf("median=%v, want 2.5", q)
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestQuantileBoundsProperty(t *testing.T) {
	f := func(raw []float64, qRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for i := range raw {
			if math.IsNaN(raw[i]) || math.IsInf(raw[i], 0) {
				raw[i] = 0
			}
		}
		q := float64(qRaw) / 255
		v := Quantile(raw, q)
		return v >= Min(raw)-1e-9 && v <= Max(raw)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{
		Title:  "demo",
		Header: []string{"name", "value"},
		Notes:  []string{"a note"},
	}
	tbl.AddRow("alpha", F(1.5))
	tbl.AddRow("b", F(0.123456))
	out := tbl.String()
	if !strings.Contains(out, "== demo ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "1.50") {
		t.Fatalf("missing cells:\n%s", out)
	}
	if !strings.Contains(out, "0.123") {
		t.Fatalf("small float misformatted:\n%s", out)
	}
	if !strings.Contains(out, "note: a note") {
		t.Fatalf("missing note:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// title, header, separator, 2 rows, note
	if len(lines) != 6 {
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
}

func TestFFormats(t *testing.T) {
	if F(0) != "0" {
		t.Fatal(F(0))
	}
	if F(123.4) != "123" {
		t.Fatal(F(123.4))
	}
	if F(2.345) != "2.35" {
		t.Fatal(F(2.345))
	}
}

func TestRingBelowCapacity(t *testing.T) {
	r := NewRing(5)
	if r.Len() != 0 || len(r.Values()) != 0 {
		t.Fatal("fresh ring should be empty")
	}
	r.Push(1)
	r.Push(2)
	r.Push(3)
	got := r.Values()
	want := []float64{1, 2, 3}
	if len(got) != 3 {
		t.Fatalf("len=%d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRingEvictsOldest(t *testing.T) {
	r := NewRing(3)
	for i := 1; i <= 7; i++ {
		r.Push(float64(i))
	}
	got := r.Values()
	want := []float64{5, 6, 7}
	if r.Len() != 3 {
		t.Fatalf("len=%d", r.Len())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// The returned slice is a copy: mutating it must not affect the ring.
	got[0] = -1
	if r.Values()[0] != 5 {
		t.Fatal("Values must return a fresh slice")
	}
}

func TestRingMinimumCapacity(t *testing.T) {
	r := NewRing(0)
	r.Push(4)
	r.Push(9)
	got := r.Values()
	if len(got) != 1 || got[0] != 9 {
		t.Fatalf("got %v", got)
	}
}

func TestRingQuantileIntegration(t *testing.T) {
	r := NewRing(100)
	for i := 1; i <= 100; i++ {
		r.Push(float64(i))
	}
	if q := Quantile(r.Values(), 0.5); q < 50 || q > 51 {
		t.Fatalf("median=%v", q)
	}
}

func TestRingMultipleWraparounds(t *testing.T) {
	r := NewRing(4)
	for i := 1; i <= 11; i++ {
		r.Push(float64(i))
		// After every push the window is exactly the last min(i,4) values,
		// oldest first, regardless of how many times the ring has wrapped.
		got := r.Values()
		n := i
		if n > 4 {
			n = 4
		}
		if len(got) != n {
			t.Fatalf("after %d pushes: len=%d, want %d", i, len(got), n)
		}
		for j := 0; j < n; j++ {
			if want := float64(i - n + 1 + j); got[j] != want {
				t.Fatalf("after %d pushes: got %v, want oldest-first window ending at %d", i, got, i)
			}
		}
	}
}

func TestRingConcurrentPushAndValues(t *testing.T) {
	r := NewRing(8)
	var pushers sync.WaitGroup
	for w := 0; w < 4; w++ {
		pushers.Add(1)
		go func(w int) {
			defer pushers.Done()
			for i := 0; i < 500; i++ {
				r.Push(float64(w*1000 + i))
			}
		}(w)
	}
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			vs := r.Values()
			if len(vs) > 8 {
				t.Errorf("window overflow: %d values", len(vs))
				return
			}
			r.Len()
			Quantile(vs, 0.5)
		}
	}()
	pushers.Wait()
	close(stop)
	<-scraped
	if r.Len() != 8 {
		t.Fatalf("len=%d, want full window", r.Len())
	}
}
