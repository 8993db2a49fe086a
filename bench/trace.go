package main

import (
	"expvar"
	"fmt"
	"io"
	"os"
	"syscall"
	"time"
)

// traceOut is where the traced run writes its spans, relative to the
// checkout root; .gitignore names it.
const traceOut = "bench/out"

// traceScale shrinks the in-process engine's copy of the op list: it runs
// twice (spans off, then on) next to a full daemon round, and the traced run
// has the same time limit as a timed one.
const traceScale = 0.5

func expInt(vars *expvar.Map, name string) float64 {
	if v, ok := vars.Get(name).(*expvar.Int); ok {
		return float64(v.Value())
	}
	return 0
}

// fsType names the filesystem under dir; fsync numbers are that disk's.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs", 0x794C7630: "overlayfs", 0x6969: "nfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("fs-0x%x", st.Type)
}

// traced runs the per-layer battery for the selected workloads, prints the
// per-layer metrics and — for a single workload — the one-line JSON report.
func (h *harness) traced() (int, error) {
	ws := h.selected()
	fmt.Printf("data dir %s on %s\n", h.root, fsType(h.root))
	code := 0
	for _, w := range ws {
		m, round, err := h.traceOne(w)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", w.name, err)
		}
		printLayers(os.Stdout, w, m)
		if len(ws) == 1 {
			// The report carries the verdict, as in a timed run.
			return 0, emitReport(round.attempted, round.failed, perLayer, func(d metricDef) float64 { return m[d.name] })
		}
		if round.failed > 0 {
			code = 1
		}
	}
	return code, nil
}

// traceOne is one workload's traced run: the library-layer probes, the
// in-process engine with spans off and on, and one untraced daemon round for
// the client-side tails and the HTTP overhead.
func (h *harness) traceOne(w *workload) (map[string]float64, *roundResult, error) {
	dirs := make([]string, 3)
	for i := range dirs {
		d, err := os.MkdirTemp(h.root, "trace-")
		if err != nil {
			return nil, nil, err
		}
		defer os.RemoveAll(d)
		dirs[i] = d
	}
	spins := []float64{spin()}
	rec := newRecorder(true)
	phase := time.Now()
	lap := func(what string) {
		fmt.Fprintf(os.Stderr, "bench: %s traced: %s took %.1fs\n", w.name, what, time.Since(phase).Seconds())
		phase = time.Now()
	}
	m, err := runLayers(rec, w, h.opt.seed, dirs[0])
	if err != nil {
		return nil, nil, err
	}
	lap("library layers")
	spins = append(spins, spin())

	pl := w.planFor(w.topo(), h.opt.seed, 0, h.scale()*traceScale)
	off, err := runEngine(newRecorder(false), pl, h.opt.seed, dirs[1])
	if err != nil {
		return nil, nil, fmt.Errorf("engine, spans off: %w", err)
	}
	on, err := runEngine(rec, pl, h.opt.seed, dirs[2])
	if err != nil {
		return nil, nil, fmt.Errorf("engine, spans on: %w", err)
	}
	for k, v := range on.m {
		m[k] = v
	}
	// Tracing overhead: the same op list through the same engine calls, with
	// the recorder off and on.
	m["trace.overhead_pct"] = 100 * (off.m["trace.epochs_per_s"] - on.m["trace.epochs_per_s"]) / off.m["trace.epochs_per_s"]
	lap("in-process engine, spans off and on")
	spins = append(spins, spin())

	round, err := runRound(h.bin, h.root, w, h.opt.seed, 0, h.scale())
	if err != nil {
		return nil, nil, err
	}
	checkSolvers(w, round)
	lap("daemon round")
	spins = append(spins, spin())
	m["service.read_p99_ms"] = percentile(round.readMs, 0.99)
	m["service.epoch_p95_ms"] = percentile(round.epochMs, 0.95)
	// Loopback + handler + JSON: the daemon's client-side median less the
	// same op's in-process median. Traffic crosses loopback, never a link.
	m["http.overhead_us"] = 1000 * (median(round.epochMs) - median(on.gated))
	m["machine.spin_ms"] = median(spins)

	path, err := rec.write(traceOut, w.name)
	if err != nil {
		return nil, nil, err
	}
	fmt.Printf("%s: %d spans written to %s\n", w.name, len(rec.spans), path)
	for _, e := range round.errs {
		fmt.Fprintf(os.Stderr, "bench:   failed: %s\n", e)
	}
	return m, round, nil
}

// printLayers prints every per-layer metric by name with its unit, grouped
// by module, then the self times of the spans that have children.
func printLayers(w io.Writer, wl *workload, m map[string]float64) {
	fmt.Fprintf(w, "%-14s %-30s %14s %s\n", "workload", "metric", "value", "unit")
	for _, d := range perLayer {
		fmt.Fprintf(w, "%-14s %-30s %14.4f %s\n", wl.name, d.name, m[d.name], d.unit)
	}
}

// selfcheckLimit is how far a metric's two self-check values may differ:
// half its bound, except congestion_mean — a pure function of the seeded
// inputs — which may differ by rounding only.
func selfcheckLimit(m metricDef) float64 {
	if m.name == "congestion_mean" {
		return 1e-6
	}
	return m.bound / 2
}

// selfcheck runs the whole suite twice back to back and fails if any
// end-to-end metric's two values differ by more than half its bound, if
// congestion_mean (a pure function of the seeded inputs) differs at all
// beyond rounding, or if any op failed.
func (h *harness) selfcheck() (int, error) {
	var runs [2][]*runResult
	for i := range runs {
		var err error
		if runs[i], err = h.suite(workloads); err != nil {
			return 0, err
		}
		printSuite(os.Stdout, runs[i])
	}
	bad := 0
	fmt.Printf("%-14s %-16s %12s %12s %8s %8s\n", "workload", "metric", "first", "second", "diff", "limit")
	for wi, r := range runs[0] {
		for _, md := range endToEnd {
			a, b := r.value(md).Median, runs[1][wi].value(md).Median
			limit, diff := selfcheckLimit(md), relDiff(a, b)
			flag := ""
			if diff > limit {
				flag = "  FAIL"
				bad++
			}
			fmt.Printf("%-14s %-16s %12.4f %12.4f %7.2f%% %7.2f%%%s\n", r.w.name, md.name, a, b, 100*diff, 100*limit, flag)
		}
		// The sentinel has no limit: it says whether a failed check above is
		// the machine's doing.
		spins := func(r *runResult) float64 {
			return median(r.pooled(func(x *roundResult) []float64 { return x.spinMs[:] }))
		}
		a, b := spins(r), spins(runs[1][wi])
		fmt.Printf("%-14s %-16s %12.4f %12.4f %7.2f%%\n", r.w.name, "machine.spin_ms", a, b, 100*relDiff(a, b))
		if f := r.failed() + runs[1][wi].failed(); f > 0 {
			fmt.Printf("%-14s %d failed ops  FAIL\n", r.w.name, f)
			bad++
		}
	}
	if bad > 0 {
		fmt.Printf("selfcheck: %d checks failed\n", bad)
		return 1, nil
	}
	fmt.Println("selfcheck: ok")
	return 0, nil
}
