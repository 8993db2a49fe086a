package service

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"sparseroute/internal/core"
	"sparseroute/internal/demand"
	"sparseroute/internal/graph"
)

// parallelEngine builds an engine over two parallel unit edges 0-1 with both
// edges installed as candidates for the single pair: the minimal topology
// where capacity degradation changes the optimal split without killing any
// candidate.
func parallelEngine(t *testing.T) (*Engine, [2]int) {
	t.Helper()
	g := graph.New(2)
	e1 := g.AddUnitEdge(0, 1)
	e2 := g.AddUnitEdge(0, 1)
	ps := core.NewPathSystem(g)
	for _, p := range []graph.Path{
		{Src: 0, Dst: 1, EdgeIDs: []int{e1}},
		{Src: 0, Dst: 1, EdgeIDs: []int{e2}},
	} {
		if err := ps.AddPath(p); err != nil {
			t.Fatal(err)
		}
	}
	e, err := New(Config{Graph: g, System: ps, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e, [2]int{e1, e2}
}

// TestEngineCapacityDegradationReoptimizes is the capacity-drill e2e: halving
// one of two parallel unit edges must leave every candidate serving (no
// pruning) while the re-optimized congestion gets strictly worse — demand 2
// over capacities (1,1) splits 1/1 for congestion 1; over (0.5,1) the optimal
// split is (2/3, 4/3) for congestion 4/3. Restoring full capacity recovers
// congestion 1.
func TestEngineCapacityDegradationReoptimizes(t *testing.T) {
	e, edges := parallelEngine(t)
	ctx := waitCtx(t)
	hash0 := e.Hash()

	d := demand.New()
	d.Set(0, 1, 2)
	epoch, err := e.submit(d)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Wait(ctx, epoch)
	if err != nil || !out.OK {
		t.Fatalf("healthy solve: %v %+v", err, out)
	}
	if math.Abs(out.Congestion-1) > 0.02 {
		t.Fatalf("healthy congestion %v, want 1", out.Congestion)
	}

	update, err := e.setCapacity(edges[0], 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(update.FailedEdges) != 0 || len(update.DegradedEdges) != 1 {
		t.Fatalf("update %+v, want one degraded edge and no failures", update)
	}
	if dc := update.DegradedEdges[0]; dc.Edge != edges[0] || dc.Capacity != 0.5 {
		t.Fatalf("degraded edge %+v", dc)
	}
	if !update.Degraded || update.UncoveredPairs != 0 {
		t.Fatalf("update %+v, want degraded with full coverage", update)
	}
	// No pruning: both candidates keep serving, and no resampling ran.
	if got := len(e.System().Unique(0, 1)); got != 2 {
		t.Fatalf("serving candidates %d, want 2 (degradation must not prune)", got)
	}
	if e.Hash() != hash0 {
		t.Fatal("capacity degradation must not change the installed system")
	}
	if h := e.Health(); h.Status != HealthDegraded || len(h.DegradedEdges) != 1 {
		t.Fatalf("health %+v, want degraded with the edge listed", h)
	}

	// The event re-serves the demand: an interim renormalized epoch and a full
	// re-adapt against the capacity-scaled view.
	resolved, err := e.Wait(ctx, epoch+2)
	if err != nil || !resolved.OK {
		t.Fatalf("re-adapt outcome: %v %+v", err, resolved)
	}
	if resolved.Congestion <= 1.01 {
		t.Fatalf("degraded congestion %v, want strictly worse than 1", resolved.Congestion)
	}
	if math.Abs(resolved.Congestion-4.0/3) > 0.05 {
		t.Fatalf("degraded congestion %v, want ~4/3", resolved.Congestion)
	}
	if got := e.metrics.capacityEvents.Value(); got != 1 {
		t.Fatalf("capacity_events=%d, want 1", got)
	}

	// A multiplier >= 1 removes the override: health ok, congestion recovers.
	update, err = e.setCapacity(edges[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	if update.Degraded || len(update.DegradedEdges) != 0 {
		t.Fatalf("recover update %+v", update)
	}
	if h := e.Health(); h.Status != HealthOK {
		t.Fatalf("health after recovery %+v", h)
	}
	recovered, err := e.Wait(ctx, epoch+4)
	if err != nil || !recovered.OK {
		t.Fatalf("recovered outcome: %v %+v", err, recovered)
	}
	if math.Abs(recovered.Congestion-1) > 0.02 {
		t.Fatalf("recovered congestion %v, want 1", recovered.Congestion)
	}
	if e.links.Load().degradedSeconds() <= 0 {
		t.Fatal("capacity-degraded time was not accounted")
	}
}

// TestEngineSetCapacityZeroEqualsFailEdges pins the failure-equivalence
// contract: a capacity-0 event must be indistinguishable from FailEdges —
// same pruning, same recovery resampling, same hash, same health — and a
// capacity->=1 event must be indistinguishable from RestoreEdges.
func TestEngineSetCapacityZeroEqualsFailEdges(t *testing.T) {
	a, edgesA := diamondEngine(t)
	b, edgesB := diamondEngine(t)

	ua, err := a.FailEdges(edgesA[1])
	if err != nil {
		t.Fatal(err)
	}
	ub, err := b.setCapacity(edgesB[1], 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ub.FailedEdges) != 1 || ub.FailedEdges[0] != edgesB[1] || len(ub.DegradedEdges) != 0 {
		t.Fatalf("capacity-0 update %+v, want the edge failed and nothing degraded", ub)
	}
	if ua.RecoveredPairs != ub.RecoveredPairs || ua.RecoveryPaths != ub.RecoveryPaths {
		t.Fatalf("recovery mismatch: fail %+v vs capacity-0 %+v", ua, ub)
	}
	if a.Hash() != b.Hash() {
		t.Fatalf("hash mismatch: fail %016x vs capacity-0 %016x", a.Hash(), b.Hash())
	}
	ha, hb := a.Health(), b.Health()
	if ha.Status != hb.Status || ha.UncoveredPairs != hb.UncoveredPairs {
		t.Fatalf("health mismatch: %+v vs %+v", ha, hb)
	}
	if a.System().TotalPaths() != b.System().TotalPaths() {
		t.Fatalf("serving mismatch: %d vs %d paths", a.System().TotalPaths(), b.System().TotalPaths())
	}

	if _, err := a.RestoreEdges(edgesA[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := b.setCapacity(edgesB[1], 1); err != nil {
		t.Fatal(err)
	}
	if a.Hash() != b.Hash() {
		t.Fatalf("post-restore hash mismatch: %016x vs %016x", a.Hash(), b.Hash())
	}
	if ha, hb := a.Health(), b.Health(); ha.Status != HealthOK || hb.Status != HealthOK {
		t.Fatalf("post-restore health: %+v vs %+v", ha, hb)
	}
}

// proactiveEngine builds the 6-vertex proactive-recovery fixture. Pair (0,3)
// has two installed candidates — 0-1-3 and 0-2-5-3 — and the topology offers
// an uninstalled alternative 0-4-3. Failing edge 1-3 kills 0-1-3, leaving the
// pair with a single surviving candidate while a fresh short path exists on
// the survivor graph: exactly the at-risk scenario proactive recovery covers.
// Pair (0,4) is installed with its only possible candidate, so it is sparse
// by construction and must never be treated as at risk.
func proactiveEngine(t *testing.T) (*Engine, map[string]int) {
	t.Helper()
	g := graph.New(6)
	ids := map[string]int{
		"01": g.AddUnitEdge(0, 1),
		"13": g.AddUnitEdge(1, 3),
		"02": g.AddUnitEdge(0, 2),
		"25": g.AddUnitEdge(2, 5),
		"53": g.AddUnitEdge(5, 3),
		"04": g.AddUnitEdge(0, 4),
		"43": g.AddUnitEdge(4, 3),
	}
	ps := core.NewPathSystem(g)
	for _, p := range []graph.Path{
		{Src: 0, Dst: 3, EdgeIDs: []int{ids["01"], ids["13"]}},
		{Src: 0, Dst: 3, EdgeIDs: []int{ids["02"], ids["25"], ids["53"]}},
		{Src: 0, Dst: 4, EdgeIDs: []int{ids["04"]}},
	} {
		if err := ps.AddPath(p); err != nil {
			t.Fatal(err)
		}
	}
	e, err := New(Config{Graph: g, System: ps, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e, ids
}

func TestEngineProactiveRecoveryWidensAtRiskPairs(t *testing.T) {
	e, ids := proactiveEngine(t)
	hash0 := e.Hash()

	update, err := e.FailEdges(ids["13"])
	if err != nil {
		t.Fatal(err)
	}
	// Pair (0,3) was never uncovered — 0-2-5-3 survives — but it was down to
	// one candidate, so the proactive pass widened it on the survivor graph.
	if update.UncoveredPairs != 0 || update.RecoveredPairs != 0 {
		t.Fatalf("update %+v, want no uncovered/recovered pairs", update)
	}
	if update.ProactivePairs != 1 || update.ProactivePaths != 1 {
		t.Fatalf("update %+v, want 1 proactive pair gaining 1 unique path", update)
	}
	if update.AtRiskPairs != 0 {
		t.Fatalf("update %+v, want no remaining at-risk pairs", update)
	}
	if got := len(e.System().Unique(0, 3)); got != 2 {
		t.Fatalf("serving candidates for (0,3): %d, want 2 after proactive widening", got)
	}
	// The sparse-by-construction pair (0,4) was left alone.
	if got := len(e.installedSystem().Unique(0, 4)); got != 1 {
		t.Fatalf("installed candidates for (0,4): %d, want 1 (not at risk)", got)
	}
	if e.Hash() == hash0 {
		t.Fatal("proactive recovery must change the installed-system hash")
	}
	if got := e.metrics.proactiveResamples.Value(); got != 1 {
		t.Fatalf("proactive_resamples=%d, want 1", got)
	}

	// Restore: nothing is impaired any more, so the engine installs the
	// startup sample again and the hash returns to it.
	if _, err := e.RestoreEdges(ids["13"]); err != nil {
		t.Fatal(err)
	}
	if e.Hash() != hash0 {
		t.Fatal("full restore must return to the startup hash")
	}
	if got := len(e.System().Unique(0, 3)); got != 2 {
		t.Fatalf("serving candidates for (0,3): %d, want the 2 originals", got)
	}
}

func TestEngineSnapshotWhileCapacityDegradedRestores(t *testing.T) {
	e, edges := parallelEngine(t)
	if _, err := e.setCapacity(edges[0], 0.25); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.writeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(bytes.NewReader(buf.Bytes()), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()

	if restored.Hash() != e.Hash() {
		t.Fatalf("restored hash %016x != original %016x", restored.Hash(), e.Hash())
	}
	h := restored.Health()
	if h.Status != HealthDegraded || len(h.FailedEdges) != 0 {
		t.Fatalf("restored health %+v, want capacity-degraded with no failures", h)
	}
	if len(h.DegradedEdges) != 1 || h.DegradedEdges[0].Edge != edges[0] || h.DegradedEdges[0].Capacity != 0.25 {
		t.Fatalf("restored degraded edges %+v", h.DegradedEdges)
	}
	// The restored engine solves against the scaled view: demand 2 over
	// capacities (0.25, 1) optimally splits (0.4, 1.6) for congestion 1.6.
	d := demand.New()
	d.Set(0, 1, 2)
	epoch, err := restored.submit(d)
	if err != nil {
		t.Fatal(err)
	}
	out, err := restored.Wait(waitCtx(t), epoch)
	if err != nil || !out.OK {
		t.Fatalf("restored solve: %v %+v", err, out)
	}
	if math.Abs(out.Congestion-1.6) > 0.05 {
		t.Fatalf("restored congestion %v, want ~1.6", out.Congestion)
	}
}

func TestEngineCapacityEventValidation(t *testing.T) {
	e, edges := parallelEngine(t)
	for _, bad := range []float64{-0.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := e.setCapacity(edges[0], bad); !errors.Is(err, errBadCapacity) {
			t.Fatalf("capacity %v: err=%v, want errBadCapacity", bad, err)
		}
	}
	if _, err := e.setCapacity(99, 0.5); !errors.Is(err, errUnknownEdge) {
		t.Fatalf("err=%v, want errUnknownEdge", err)
	}
	// Degrading at full capacity is a no-op: no version bump.
	v := linksOf(e).Version
	if u, err := e.setCapacity(edges[0], 1.5); err != nil || u.Version != v {
		t.Fatalf("no-op capacity event: %v %+v", err, u)
	}
	// Repeating the same override is a no-op too.
	if _, err := e.setCapacity(edges[0], 0.5); err != nil {
		t.Fatal(err)
	}
	v = linksOf(e).Version
	if u, err := e.setCapacity(edges[0], 0.5); err != nil || u.Version != v {
		t.Fatalf("repeated capacity event bumped version: %v %+v", err, u)
	}
}
