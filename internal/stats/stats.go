// Package stats provides the small numeric summaries and fixed-width table
// rendering the experiment harness uses to print the rows each experiment
// reports.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Max returns the maximum (0 for empty input).
func Max(xs []float64) float64 {
	var m float64
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum (0 for empty input).
func Min(xs []float64) float64 {
	var m float64
	for i, x := range xs {
		if i == 0 || x < m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-quantile (0<=q<=1) by linear interpolation.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Ring is a fixed-capacity sliding window of observations: once full, each
// Push evicts the oldest value. The fleet's metrics registry uses it to
// report cold- and warm-start latency quantiles over the recent past instead
// of the whole process lifetime. Safe for concurrent use: observations land
// from residency builds while /metrics scrapes read the window, so the ring
// synchronizes internally rather than trusting every caller to.
type Ring struct {
	mu   sync.Mutex
	buf  []float64
	n    int // number of live values (<= cap)
	next int // index the next Push writes
}

// NewRing returns a ring holding at most capacity values (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]float64, capacity)}
}

// Push records x, evicting the oldest observation when full.
func (r *Ring) Push(x float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf[r.next] = x
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// Len returns the number of live observations.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Values returns the live observations, oldest first, as a fresh slice safe
// for the caller to sort or keep.
func (r *Ring) Values() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]float64, 0, r.n)
	if r.n < len(r.buf) {
		out = append(out, r.buf[:r.n]...)
		return out
	}
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Table is a printable experiment table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// F formats a float at sensible precision for table cells.
func F(x float64) string {
	switch {
	case x == 0:
		return "0"
	case math.Abs(x) >= 100:
		return fmt.Sprintf("%.0f", x)
	case math.Abs(x) >= 1:
		return fmt.Sprintf("%.2f", x)
	default:
		return fmt.Sprintf("%.3f", x)
	}
}

// String renders the table with aligned fixed-width columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	var sep []string
	for _, w := range widths {
		sep = append(sep, strings.Repeat("-", w))
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}
