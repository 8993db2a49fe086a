package main

import (
	"fmt"
	"io"
	"os"
	"strings"
)

// defaultRounds is how many rounds (fresh daemons) one run gives a workload.
// Every end-to-end metric is the median of the round values.
const defaultRounds = 5

// metricDef is one row of BENCHMARK.json: end_to_end rows carry a bound and
// how to read the metric off a round, per_layer rows neither.
type metricDef struct {
	name   string
	unit   string
	higher bool    // higher is better
	bound  float64 // share of the parent's median it may worsen by
	of     func(*roundResult) float64
}

// endToEnd mirrors BENCHMARK.json's end_to_end list (a test keeps the two in
// step). A bound has to exceed the spread of ten differently seeded runs
// (the distance between their quartiles over their median), or identical code
// fails the benchmark's own acceptance; on this host that spread reached 18%
// on the timings, 6.4% on the footprint and 1.1% on the congestion. See
// README.md, "What this machine supports".
var endToEnd = []metricDef{
	{name: "epoch_p50_ms", unit: "ms", bound: 0.25, of: func(x *roundResult) float64 { return median(x.epochMs) }},
	{name: "epochs_per_s", unit: "1/s", higher: true, bound: 0.25, of: (*roundResult).opsPerS},
	{name: "read_p50_ms", unit: "ms", bound: 0.25, of: func(x *roundResult) float64 { return median(x.readMs) }},
	{name: "congestion_mean", unit: "ratio", bound: 0.02, of: func(x *roundResult) float64 { return mean(x.cong) }},
	{name: "rss_peak_mb", unit: "MB", bound: 0.15, of: func(x *roundResult) float64 { return x.rssPeakMB }},
	{name: "recover_s", unit: "s", bound: 0.25, of: func(x *roundResult) float64 { return x.recoverS }},
	{name: "setup_s", unit: "s", bound: 0.25, of: func(x *roundResult) float64 { return x.setupS }},
}

// runResult is one workload's rounds within one run of the harness.
type runResult struct {
	w      *workload
	rounds []*roundResult
}

func (r *runResult) attempted() (n int) {
	for _, x := range r.rounds {
		n += x.attempted
	}
	return n
}

func (r *runResult) failed() (n int) {
	for _, x := range r.rounds {
		n += x.failed
	}
	return n
}

// value is the metric's reported value: the median of the round values, with
// the rounds' min and max as spread.
func (r *runResult) value(m metricDef) spread {
	rounds := make([]float64, len(r.rounds))
	for i, x := range r.rounds {
		rounds[i] = m.of(x)
	}
	return spreadOf(rounds)
}

// pooled concatenates a per-op sample over the rounds, for the tails and the
// median guard (which need more than one round's worth of samples).
func (r *runResult) pooled(pick func(*roundResult) []float64) []float64 {
	var out []float64
	for _, x := range r.rounds {
		out = append(out, pick(x)...)
	}
	return out
}

// suite runs every given workload for opt.rounds rounds, interleaved across
// workloads (A B C D A B C D ...): a slow half-minute on the shared machine
// then costs one round of every workload, not one workload's whole sample.
func (h *harness) suite(ws []*workload) ([]*runResult, error) {
	runs := make([]*runResult, len(ws))
	for i, w := range ws {
		runs[i] = &runResult{w: w}
	}
	// Rounds run back to back, so one sentinel sample closes a round and
	// opens the next.
	sentinel := spin()
	for round := 0; round < h.opt.rounds; round++ {
		for i, w := range ws {
			res, err := runRound(h.bin, h.root, w, h.opt.seed, round, h.scale())
			if err != nil {
				return nil, fmt.Errorf("%s round %d: %w", w.name, round, err)
			}
			checkSolvers(w, res)
			after := spin()
			res.spinMs = [2]float64{sentinel, after}
			sentinel = after
			fmt.Fprintf(os.Stderr, "bench: %s round %d/%d: epoch p50 %.2f ms, %.1f epochs/s, spin before %.1f ms after %.1f ms, %d/%d failed\n",
				w.name, round+1, h.opt.rounds, median(res.epochMs), res.opsPerS(), res.spinMs[0], res.spinMs[1], res.failed, res.attempted)
			for _, e := range res.errs {
				fmt.Fprintf(os.Stderr, "bench:   failed: %s\n", e)
			}
			runs[i].rounds = append(runs[i].rounds, res)
		}
	}
	return runs, nil
}

// printSuite prints every end-to-end metric of every workload by name with
// its unit, bound and round spread, then the ungated companions: op counts,
// solver mix, client-side tails, the median guard and the noise sentinel.
func printSuite(w io.Writer, runs []*runResult) {
	fmt.Fprintf(w, "%-14s %-16s %12s %-6s %6s   %s\n", "workload", "metric", "median", "unit", "bound", "rounds min..max")
	for _, r := range runs {
		for _, m := range endToEnd {
			v := r.value(m)
			fmt.Fprintf(w, "%-14s %-16s %12.4f %-6s %5.0f%%   %.4f..%.4f\n",
				r.w.name, m.name, v.Median, m.unit, 100*m.bound, v.Min, v.Max)
		}
	}
	fmt.Fprintln(w)
	for _, r := range runs {
		epochs := r.pooled(func(x *roundResult) []float64 { return x.epochMs })
		reads := r.pooled(func(x *roundResult) []float64 { return x.readMs })
		late := r.pooled(func(x *roundResult) []float64 { return x.readLate })
		spins := r.pooled(func(x *roundResult) []float64 { return x.spinMs[:] })
		fmt.Fprintf(w, "%s: ops %d attempted, %d failed; %d gated epochs, %d reader ticks; solvers %s\n",
			r.w.name, r.attempted(), r.failed(), len(epochs), len(reads), solverMix(r))
		fmt.Fprintf(w, "  epoch ms p40/p50/p60 %.3f/%.3f/%.3f p95 %.3f; read ms p40/p50/p60 %.3f/%.3f/%.3f p99 %.3f; reader late p50 %.3f ms max %.3f ms\n",
			percentile(epochs, 0.4), median(epochs), percentile(epochs, 0.6), percentile(epochs, 0.95),
			percentile(reads, 0.4), median(reads), percentile(reads, 0.6), percentile(reads, 0.99),
			median(late), percentile(late, 1))
		s := spreadOf(spins)
		fmt.Fprintf(w, "  machine.spin_ms %.2f (%.2f..%.2f before and after the rounds)\n", s.Median, s.Min, s.Max)
		for _, g := range []struct {
			name string
			xs   []float64
		}{{"epoch_p50_ms", epochs}, {"read_p50_ms", reads}} {
			if gap := modeGap(g.xs); gap > modeGapLimit {
				fmt.Fprintf(w, "  WARNING %s: p40..p60 spans %.0f%% of the median — the median sits on a mode boundary\n", g.name, 100*gap)
			}
		}
	}
}

// solverMix counts the daemon-reported solver of the timed epochs, e.g.
// "mwu:160".
func solverMix(r *runResult) string {
	counts := map[string]int{}
	var order []string
	for _, x := range r.rounds {
		for _, t := range x.traces {
			if t.Solver == "" {
				continue
			}
			if counts[t.Solver] == 0 {
				order = append(order, t.Solver)
			}
			counts[t.Solver]++
		}
	}
	var parts []string
	for _, s := range order {
		parts = append(parts, fmt.Sprintf("%s:%d", s, counts[s]))
	}
	return strings.Join(parts, " ")
}
