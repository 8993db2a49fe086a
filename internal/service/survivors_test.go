package service

import (
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"sparseroute/internal/graph/gen"
	"sparseroute/internal/oblivious"
	"sparseroute/internal/serial"
)

// TestLinkEventBuildsOneSurvivorRouter replays TestLinkEventGoldenHash's
// link events and counts survivor-router builds. Recovery and single-survivor
// widening avoid the same failed set, so one router serves both: "fail 70"
// recovers 38 pairs and widens 248 off a single build, and "restore 20",
// which leaves edge 70 failed, derives that state again from the startup
// sample: 37 pairs recovered, 219 widened, one build. The hashes are the
// golden test's, so sharing the router moved no sampled path.
func TestLinkEventBuildsOneSurvivorRouter(t *testing.T) {
	g := gen.SyntheticWAN(64, 40, rand.New(rand.NewPCG(64, 64)))
	router, err := oblivious.Build("raecke", g, &oblivious.BuildOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	e := testEngine(t, Config{Graph: g, Router: router, RouterName: "raecke", R: 4, Seed: 7, Workers: 1})

	for _, s := range []struct {
		name                     string
		fail, restore            []int
		hash                     uint64
		recovered, widened, want int
	}{
		{"fail 20", []int{20}, nil, 0x67689be686713458, 0, 12, 1},
		{"fail 70", []int{70}, nil, 0x030f0ed0adef0da8, 38, 248, 1},
		{"restore 20", nil, []int{20}, 0x6ecae27d60c79d18, 37, 219, 1},
		{"restore 70", nil, []int{70}, 0x064b3909470f40a8, 0, 0, 0},
	} {
		before := e.metrics.survivorBuilds.Value()
		update, err := e.updateLinks(s.fail, s.restore)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if got := e.Hash(); got != s.hash {
			t.Errorf("%s: hash %016x, want %016x", s.name, got, s.hash)
		}
		if update.RecoveredPairs != s.recovered || update.ProactivePairs != s.widened {
			t.Errorf("%s: %d pairs recovered, %d widened; want %d, %d",
				s.name, update.RecoveredPairs, update.ProactivePairs, s.recovered, s.widened)
		}
		if got := e.metrics.survivorBuilds.Value() - before; got != int64(s.want) {
			t.Errorf("%s: %d survivor builds, want %d", s.name, got, s.want)
		}
	}
}

// TestOpenSurvivorRouterUsesBuildOptions: Open's build options reach the
// survivor routers, so an engine sampled from a 4-tree mixture also
// resamples failures from 4 trees — at most 4 distinct paths per pair —
// while an engine made with New keeps the 12-tree default.
func TestOpenSurvivorRouterUsesBuildOptions(t *testing.T) {
	g := gen.Grid(6, 6)
	topo := filepath.Join(t.TempDir(), "topo.json")
	f, err := os.Create(topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.EncodeGraph(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	cfg := Config{RouterName: "raecke", R: 2, Seed: 7, Workers: 1}
	opened, err := Open(Files{Topo: topo}, cfg, oblivious.BuildOptions{Trees: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(opened.Engine.Close)

	maxPaths := func(e *Engine) int {
		t.Helper()
		r, err := e.survivorRouter(map[int]bool{0: true})
		if err != nil {
			t.Fatal(err)
		}
		most := 0
		n := g.NumVertices()
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				dist, err := r.Distribution(u, v)
				if err != nil {
					t.Fatal(err)
				}
				most = max(most, len(dist))
			}
		}
		return most
	}
	if got := maxPaths(opened.Engine); got > 4 {
		t.Errorf("Open with Trees 4: a pair has %d distinct survivor paths, want at most 4", got)
	}
	router, err := oblivious.Build("raecke", g, &oblivious.BuildOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Graph, cfg.Router = g, router
	if got := maxPaths(testEngine(t, cfg)); got <= 4 {
		t.Errorf("New with default options: at most %d distinct survivor paths per pair, want more than 4 from 12 trees", got)
	}
}
