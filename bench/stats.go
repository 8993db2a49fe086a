package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics; 0 for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// spread is a metric's value over the rounds of one run: the median is what
// is reported and gated, min and max show how far the rounds disagreed.
type spread struct {
	Median, Min, Max float64
}

func spreadOf(rounds []float64) spread {
	return spread{Median: median(rounds), Min: percentile(rounds, 0), Max: percentile(rounds, 1)}
}

// modeGap is the median guard: the distance between the 40th and 60th
// percentile as a share of the median. A large gap means the median sits on
// a boundary between two modes and will jump between them from run to run.
func modeGap(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (percentile(xs, 0.6) - percentile(xs, 0.4)) / m
}

// modeGapLimit is the p40..p60 width above which a workload's median is
// flagged as sitting on a mode boundary.
const modeGapLimit = 0.15

// pacer is the open-loop schedule of the paced reader: tick i is due at
// start + i*interval whether or not earlier ticks finished on time, and a
// tick's latency is measured from its due time, so a stall is charged to
// every tick it delays.
type pacer struct {
	start    time.Time
	interval time.Duration
}

func (p pacer) due(i int) time.Time { return p.start.Add(time.Duration(i) * p.interval) }

// latency is the tick's latency from its due time to done.
func (p pacer) latency(i int, done time.Time) time.Duration { return done.Sub(p.due(i)) }

// lateness is how far behind schedule the tick was sent; the generator never
// sends a tick early, so a negative value is a bug in it.
func (p pacer) lateness(i int, sent time.Time) time.Duration { return sent.Sub(p.due(i)) }

// relDiff is |a-b| as a share of |a|.
func relDiff(a, b float64) float64 {
	if a == 0 {
		return math.Abs(b)
	}
	return math.Abs(a-b) / math.Abs(a)
}
