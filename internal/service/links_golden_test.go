package service

import (
	"math"
	"math/rand/v2"
	"testing"

	"sparseroute/internal/demand"
	"sparseroute/internal/graph/gen"
	"sparseroute/internal/oblivious"
)

// TestLinkEventGoldenHash pins the installed-system hash and the served
// congestion through fail → fail → restore → restore on the bench's WAN
// (topology seed 64, sampling seed 7, the 300-pair standing matrix). Edges
// 20 and 70 are non-bridge and between them exercise every pass of a link
// event: prune, recovery resample and proactive widening, and a full restore
// that installs the startup system again. The hash covers the sorted pair
// order and every installed path in order; which pairs get widened follows
// from the unique candidate counts, and the congestion is the cold MWU
// re-adapt, whose tie-breaks follow candidate order — so a change to how
// core.PathSystem dedupes, orders or sorts moves one of the two. The start
// row was recorded at commit 06698ad, before PathSystem.Unique stopped
// building Path.Key strings and before the MWU loop became a flat kernel;
// the degraded rows were re-recorded when the sampling passes came to be
// seeded by their avoid sets instead of the link version. Congestion is
// compared to 1e-9 because flow.Routing.EdgeLoads sums in map order. After
// "restore 20" the failed set is {70}, and the engine must install what a
// fresh engine installs after "fail 70".
func TestLinkEventGoldenHash(t *testing.T) {
	g := gen.SyntheticWAN(64, 40, rand.New(rand.NewPCG(64, 64)))
	router, err := oblivious.Build("raecke", g, &oblivious.BuildOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	e := testEngine(t, Config{Graph: g, Router: router, RouterName: "raecke", R: 4, Seed: 7, Workers: 1})
	ctx := waitCtx(t)

	check := func(step string, epoch, wantHash uint64, wantCong float64, wantPaths int) {
		t.Helper()
		out, err := e.Wait(ctx, epoch)
		if err != nil || !out.OK {
			t.Fatalf("%s: epoch %d: %v %+v", step, epoch, err, out)
		}
		if got := e.Hash(); got != wantHash {
			t.Errorf("%s: hash %016x, want %016x", step, got, wantHash)
		}
		if math.Abs(out.Congestion-wantCong) > 1e-9*wantCong {
			t.Errorf("%s: congestion %.17g, want %.17g", step, out.Congestion, wantCong)
		}
		if got := e.installedSystem().TotalPaths(); got != wantPaths {
			t.Errorf("%s: %d installed paths, want %d", step, got, wantPaths)
		}
	}

	epoch, err := e.submit(demand.Gravity(g, 60, 300, rand.New(rand.NewPCG(600, 300))))
	if err != nil {
		t.Fatal(err)
	}
	check("start", epoch, 0x064b3909470f40a8, 2.0934332216804612, 8064)

	for _, s := range []struct {
		name          string
		fail, restore []int
		hash          uint64
		cong          float64
		paths         int
	}{
		{"fail 20", []int{20}, nil, 0x67689be686713458, 2.1396628090201464, 8089},
		{"fail 70", []int{70}, nil, 0x030f0ed0adef0da8, 2.344211575847607, 8785},
		{"restore 20", nil, []int{20}, 0x6ecae27d60c79d18, 2.244801313909313, 8710},
		{"restore 70", nil, []int{70}, 0x064b3909470f40a8, 2.0934332216804612, 8064},
	} {
		if _, err := e.updateLinks(s.fail, s.restore); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		// A link event publishes the renormalized interim epoch, then the
		// cold re-adapt this test reads.
		epoch += 2
		check(s.name, epoch, s.hash, s.cong, s.paths)
		if s.name == "restore 20" {
			fresh := testEngine(t, Config{Graph: g, Router: router, RouterName: "raecke", R: 4, Seed: 7, Workers: 1})
			if _, err := fresh.FailEdges(70); err != nil {
				t.Fatal(err)
			}
			if fresh.Hash() != e.Hash() || !sameSystems(fresh.installedSystem(), e.installedSystem()) {
				t.Errorf("restore 20: hash %016x, a fresh engine after fail 70 %016x", e.Hash(), fresh.Hash())
			}
		}
	}
}
