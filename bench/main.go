// Command bench is the repository's benchmark: the ruler every later
// performance or simplicity claim is measured with. It builds ./cmd/routed,
// drives a real daemon over loopback HTTP through four serving workloads, and
// prints every end-to-end metric by name with its unit and bound; with
// -trace 1 it calls each layer's public functions in-process under spans and
// prints the per-layer metrics. See README.md in this directory.
//
//	go run ./bench                                   # all workloads, rounds interleaved
//	go run ./bench -workload grid100-dense -seed 3   # one workload
//	go run ./bench -workload wan64-flap -trace 1     # per-layer metrics + spans
//	go run ./bench -selfcheck                        # the suite twice, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// refSeconds is the run length the workloads' nominal op counts are sized
// for; -seconds scales the fixed op list linearly from it.
const refSeconds = 25

type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     int
	rounds    int
	selfcheck bool
}

func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: all, rounds interleaved)")
	fs.Uint64Var(&o.seed, "seed", 1, "traffic seed: drives every matrix, patch and edge order")
	fs.IntVar(&o.seconds, "seconds", refSeconds, "run length the fixed op list is sized for")
	fs.IntVar(&o.trace, "trace", 0, "1: traced run, prints the per-layer metrics and writes spans")
	fs.IntVar(&o.rounds, "rounds", defaultRounds, "rounds per workload, a fresh daemon each")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run the suite twice and fail if any end-to-end metric moved by more than half its bound")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.workload != "" && findWorkload(o.workload) == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 || o.rounds < 1 || (o.trace != 0 && o.trace != 1) {
		return nil, fmt.Errorf("need -seconds >= 1, -rounds >= 1, -trace 0|1")
	}
	return o, nil
}

// report is the last line of a single-workload run's standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emitReport prints the report of a single-workload run: the driver's form.
// The report carries the verdict; the exit code says only that a report was
// printed.
func emitReport(attempted, failed int, defs []metricDef, value func(metricDef) float64) error {
	rep := report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range defs {
		rep.Metrics[m.name] = metricValue{Value: value(m), Unit: m.unit}
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	code, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

// run builds the daemon, creates the run's scratch directory (removed on
// every exit path, signals included) and dispatches the mode.
func run(o *options) (int, error) {
	bin, err := buildRouted(buildDir)
	if err != nil {
		return 0, err
	}
	root, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return 0, err
	}
	root, err = filepath.Abs(root)
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(root)
	// A signal cannot run deferred calls; kill the daemon and clean up by
	// hand.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		running.Load().kill()
		os.RemoveAll(root)
		os.Exit(130)
	}()
	h := &harness{bin: bin, root: root, opt: o}

	switch {
	case o.selfcheck:
		return h.selfcheck()
	case o.trace == 1:
		return h.traced()
	default:
		return h.timed()
	}
}

type harness struct {
	bin  string
	root string
	opt  *options
}

func (h *harness) selected() []*workload {
	if h.opt.workload == "" {
		return workloads
	}
	return []*workload{findWorkload(h.opt.workload)}
}

func (h *harness) scale() float64 { return float64(h.opt.seconds) / refSeconds }

// timed runs the selected workloads, prints the end-to-end table, and — for
// a single workload — ends with the one-line JSON report.
func (h *harness) timed() (int, error) {
	runs, err := h.suite(h.selected())
	if err != nil {
		return 0, err
	}
	printSuite(os.Stdout, runs)
	if len(runs) == 1 {
		r := runs[0]
		return 0, emitReport(r.attempted(), r.failed(), endToEnd, func(m metricDef) float64 { return r.value(m).Median })
	}
	for _, r := range runs {
		if r.failed() > 0 {
			return 1, nil
		}
	}
	return 0, nil
}
