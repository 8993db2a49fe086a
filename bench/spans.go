package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer: name, start, end, and the span that
// caused it. Spans of one operation share an op id.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was made
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the traced run ends. It is used from
// the harness goroutine only. A disabled recorder still runs the wrapped
// calls; comparing the two is how tracing overhead is measured.
type recorder struct {
	t0      time.Time
	enabled bool
	spans   []span
	ops     int
}

func newRecorder(enabled bool) *recorder { return &recorder{t0: time.Now(), enabled: enabled} }

// newOp starts a new operation and returns its id.
func (r *recorder) newOp() int {
	r.ops++
	return r.ops
}

// begin opens a span under parent (0 for a root) and returns its id, 0 when
// the recorder is disabled.
func (r *recorder) begin(op, parent int, name string) int {
	if !r.enabled {
		return 0
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: int64(time.Since(r.t0))})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if id > 0 {
		r.spans[id-1].End = int64(time.Since(r.t0))
	}
}

// add records a span whose interval was measured elsewhere — the stages the
// engine's own epoch trace reports.
func (r *recorder) add(op, parent int, name string, start, end time.Time) int {
	if !r.enabled {
		return 0
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))})
	return len(r.spans)
}

// call runs fn inside a span.
func (r *recorder) call(op, parent int, name string, fn func(id int)) {
	id := r.begin(op, parent, name)
	fn(id)
	r.end(id)
}

// timed runs fn under a root span of a new op and returns its duration in
// ms (measured whether or not the recorder is enabled).
func (r *recorder) timed(name string, fn func()) float64 {
	op := r.newOp()
	t0 := time.Now()
	r.call(op, 0, name, func(int) { fn() })
	return float64(time.Since(t0)) / float64(time.Millisecond)
}

// medianOf runs fn reps times, each under its own root span, and returns the
// median duration in ms.
func (r *recorder) medianOf(name string, reps int, fn func(i int)) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = r.timed(name, func() { fn(i) })
	}
	return median(xs)
}

// selfTimes returns, per span name, each span's self time in ms: its
// duration minus the part of its interval that its child spans cover.
func selfTimes(spans []span) map[string][]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		covered := coveredNs(s.Start, s.End, children[s.ID])
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered)/1e6)
	}
	return out
}

// coveredNs is the length of the union of the children's intervals, clipped
// to [start, end]: overlapping children are not counted twice and a child
// that outlives its parent only counts for the part inside it.
func coveredNs(start, end int64, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var covered int64
	cursor := start
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < cursor {
			lo = cursor
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			covered += hi - lo
			cursor = hi
		}
	}
	return covered
}

// write dumps the spans as JSON to dir/trace-<workload>.json.
func (r *recorder) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	raw, err := json.Marshal(map[string]any{"workload": workload, "spans": r.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o644)
}
