package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sparseroute/internal/graph/gen"
	"sparseroute/internal/serial"
	"sparseroute/internal/service"
)

// TestStartupBanner pins the startup line byte for byte, sampled and restored
// from a snapshot taken with vertex 0 cut off: the counts are the serving
// system's, read without PathSystem.Stats, and must print what Stats' did.
func TestStartupBanner(t *testing.T) {
	dir := t.TempDir()
	topo := filepath.Join(dir, "topo.json")
	f, err := os.Create(topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.EncodeGraph(f, gen.Hypercube(3)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	snap := filepath.Join(dir, "sys.snap")
	o, err := parseFlags([]string{"-topo", topo, "-router", "valiant", "-s", "3", "-seed", "11", "-snapshot", snap})
	if err != nil {
		t.Fatal(err)
	}

	check := func(want string) {
		t.Helper()
		opened, err := service.Open(service.Files{Snapshot: o.snapshot, Topo: o.topo}, o.engine, o.build)
		if err != nil {
			t.Fatal(err)
		}
		e := opened.Engine
		defer e.Close()
		got := startupBanner(o, opened)
		if got != want {
			t.Errorf("banner %q, want %q", got, want)
		}
		st := e.System().Stats()
		stats := fmt.Sprintf("routed: sampled %d pairs, %d paths via %s R=%d (hash %016x)\n",
			st.Pairs, st.TotalPaths, o.engine.RouterName, o.engine.R, e.Hash())
		if opened.Restored {
			stats = fmt.Sprintf("routed: restored %s: %d pairs, %d paths (hash %016x) — resampling skipped\n",
				o.snapshot, st.Pairs, st.TotalPaths, e.Hash())
		} else {
			// Cut vertex 0 off: its seven pairs lose every candidate.
			if _, err := e.FailEdges(0, 1, 2); err != nil {
				t.Fatal(err)
			}
			if _, err := e.SnapshotToFile(snap); err != nil {
				t.Fatal(err)
			}
		}
		if got != stats {
			t.Errorf("banner %q, Stats counts give %q", got, stats)
		}
	}
	check("routed: sampled 28 pairs, 84 paths via valiant R=3 (hash 852d79b8c7b22c64)\n")
	check(fmt.Sprintf("routed: restored %s: 21 pairs, 56 paths (hash 843f0eaba89387e5) — resampling skipped\n", snap))
}
