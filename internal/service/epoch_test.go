package service

import (
	"bytes"
	"context"
	"errors"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"sparseroute/internal/core"
	"sparseroute/internal/demand"
	"sparseroute/internal/flow"
	"sparseroute/internal/graph/gen"
	"sparseroute/internal/oblivious"
	"sparseroute/internal/obs"
	"sparseroute/internal/wal"
)

// TestEpochMatchesEngine drives epoch directly, with no engine, on the states
// a fold of an engine's log gives, and requires what the engine published
// for the same log: a cold epoch, a delta epoch on top of it, then a cold
// solve that fails. The two solved epochs match congestion and edge loads
// bit for bit, and the failed one falls back with the same error.
func TestEpochMatchesEngine(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "epoch.wal")
	e, _, _ := walEngine(t, walPath, Config{Seed: 7})
	d := demand.New()
	d.Set(0, 7, 2)
	d.Set(1, 6, 1)
	d.Set(2, 5, 1.5)
	mustSolve(t, e, d)
	cold := e.Active()
	mustPatch(t, e, []PairAmount{{U: 0, V: 7, Amount: 2.02}}, nil)
	delta := e.Active()
	injected := errors.New("injected solver failure")
	failing := func(context.Context, *core.PathSystem, *demand.Demand, *core.AdaptOptions) (flow.Routing, error) {
		return nil, injected
	}
	e.adapt = failing
	n, err := e.submit(d)
	if err != nil {
		t.Fatal(err)
	}
	fallback, err := e.Wait(waitCtx(t), n)
	if err != nil || !fallback.Fallback {
		t.Fatalf("failing solve: %v %+v", err, fallback)
	}

	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	records, _ := wal.Scan(raw)
	if len(records) != 3 {
		t.Fatalf("log holds %d records, want 3", len(records))
	}
	start := state{system: e.original, capacity: map[int]float64{}, version: 1}
	run := func(k int, prev *State, touched []demand.Pair, adapt adaptFunc) *epochResult {
		s := fold(start, &wal.Recovery{Records: records[:k]}).to
		return epoch(context.Background(), &epochIn{
			links: e.deriveLinks(s.version, s.capacity).next, prev: prev,
			req:   &epochRequest{d: s.demand, touched: touched, epoch: uint64(k)},
			adapt: adapt, delta: true, opts: &core.AdaptOptions{},
		})
	}
	same := func(name string, res *epochResult, warm string, want *State) {
		t.Helper()
		if res.err != nil || res.warm != warm {
			t.Fatalf("%s epoch: tag %q, error %v; want a %s solve", name, res.warm, res.err, warm)
		}
		if got := res.state; got.Congestion != want.Congestion || !slices.Equal(got.EdgeLoads, want.EdgeLoads) {
			t.Fatalf("%s epoch: congestion %v, engine published %v", name, got.Congestion, want.Congestion)
		}
	}

	first := run(1, nil, nil, defaultAdapt)
	same("cold", first, obs.WarmCold, cold)
	second := run(2, first.state, []demand.Pair{demand.MakePair(0, 7)}, defaultAdapt)
	same("delta", second, obs.WarmDelta, delta)
	third := run(3, second.state, nil, failing)
	if third.state != nil || third.err == nil || third.err.Error() != fallback.Err {
		t.Fatalf("failing epoch: state %v, error %v; engine fell back with %q", third.state, third.err, fallback.Err)
	}
}

// TestTwinEnginesServeSameBytes: two engines built from the same config and
// driven through the same ops serve byte-identical GET /v1/routing bodies
// and ETags after every op — a submit (cold), a patch (delta), and a failure
// of an edge the routing uses, both at its interim renormalized publish and
// after the cold re-adapt that follows.
func TestTwinEnginesServeSameBytes(t *testing.T) {
	g := gen.Grid(6, 6)
	twin := func() *Engine {
		router, err := oblivious.Build("raecke", g, &oblivious.BuildOptions{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return testEngine(t, Config{Graph: g, Router: router, RouterName: "raecke", R: 4, Seed: 7, Workers: 1})
	}
	engines := [2]*Engine{twin(), twin()}
	same := func(step string) {
		t.Helper()
		var bodies [2][]byte
		var tags [2]string
		for i, e := range engines {
			body, tag, err := e.Active().routingReply()
			if err != nil {
				t.Fatalf("%s: engine %d: %v", step, i, err)
			}
			bodies[i], tags[i] = body, tag
		}
		if !bytes.Equal(bodies[0], bodies[1]) || tags[0] != tags[1] {
			t.Fatalf("%s: the twins serve different routings (ETags %s and %s)", step, tags[0], tags[1])
		}
	}

	d := demand.Gravity(g, 20, 60, rand.New(rand.NewPCG(7, 7)))
	for _, e := range engines {
		if out := mustSolve(t, e, d); out.Warm != obs.WarmCold {
			t.Fatalf("submit solved %q, want cold", out.Warm)
		}
	}
	same("submit")

	p := d.Support()[0]
	set := []PairAmount{{U: p.U, V: p.V, Amount: 1.01 * d.Get(p.U, p.V)}}
	for _, e := range engines {
		if out := mustPatch(t, e, set, nil); out.Warm != obs.WarmDelta {
			t.Fatalf("patch solved %q, want delta", out.Warm)
		}
	}
	same("patch")

	used := engines[0].Active().Routing[p][0].Path.EdgeIDs[0]
	var releases [2]func()
	for i, e := range engines {
		_, releases[i] = holdSolves(e)
		if _, err := e.FailEdges(used); err != nil {
			t.Fatal(err)
		}
		if st := e.Active(); !st.Renormalized {
			t.Fatalf("engine %d serves epoch %d after the fail, want the interim", i, st.Epoch)
		}
	}
	same("interim")
	for i, e := range engines {
		releases[i]()
		quiesce(t, e)
		if st := e.Active(); st.Renormalized || st.Anchor == nil {
			t.Fatalf("engine %d serves epoch %d after the re-adapt, want a cold solve", i, st.Epoch)
		}
	}
	same("re-adapt")
}
