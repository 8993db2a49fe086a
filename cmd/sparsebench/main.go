// Command sparsebench regenerates the evaluation tables of the sparse
// semi-oblivious routing reproduction (see DESIGN.md for the experiment
// index and EXPERIMENTS.md for recorded outputs).
//
// Usage:
//
//	sparsebench -experiment all            # run E1..E13 at full size
//	sparsebench -experiment E2,E3 -quick   # selected experiments, small sizes
//	sparsebench -list                      # list experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sparseroute/internal/experiments"
)

func main() {
	var (
		expFlag  = flag.String("experiment", "all", "comma-separated experiment names (E1..E13) or 'all'")
		seed     = flag.Uint64("seed", 1, "random seed (identical seeds reproduce identical tables)")
		quick    = flag.Bool("quick", false, "shrink instance sizes (CI/bench mode)")
		listOnly = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *listOnly {
		for _, r := range experiments.All() {
			fmt.Printf("%-4s %s\n", r.Name, r.Brief)
		}
		return
	}

	var runners []experiments.Runner
	if *expFlag == "all" {
		runners = experiments.All()
	} else {
		for _, name := range strings.Split(*expFlag, ",") {
			r, err := experiments.Find(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			runners = append(runners, r)
		}
	}

	cfg := experiments.Config{Seed: *seed, Quick: *quick}
	failed := false
	for _, r := range runners {
		start := time.Now()
		tbl, err := r.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", r.Name, err)
			failed = true
			continue
		}
		fmt.Printf("%s", tbl.String())
		fmt.Printf("(%s, %.1fs, seed=%d, quick=%v)\n\n", r.Brief, time.Since(start).Seconds(), *seed, *quick)
	}
	if failed {
		os.Exit(1)
	}
}
