package laplacian

import (
	"math"
	"testing"

	"sparseroute/internal/graph"
	"sparseroute/internal/graph/gen"
)

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(graph.New(0)); err == nil {
		t.Fatal("empty graph should be rejected")
	}
	disc := graph.New(3)
	disc.AddUnitEdge(0, 1)
	if _, err := NewSystem(disc); err == nil {
		t.Fatal("disconnected graph should be rejected")
	}
}

func TestSolveResidual(t *testing.T) {
	g := gen.Grid(5, 5)
	s, err := NewSystem(g)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, g.NumVertices())
	b[0] = 1
	b[24] = -1
	x, err := s.Solve(b, 1e-10, 0)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, len(x))
	s.apply(x, y)
	for i := range y {
		if math.Abs(y[i]-b[i]) > 1e-6 {
			t.Fatalf("residual at %d: %v", i, y[i]-b[i])
		}
	}
}

func TestSolveRejectsUnbalancedRHS(t *testing.T) {
	g := gen.Ring(4)
	s, _ := NewSystem(g)
	b := []float64{1, 0, 0, 0}
	if _, err := s.Solve(b, 0, 0); err == nil {
		t.Fatal("rhs not summing to zero should be rejected")
	}
}

func TestSolveZeroRHS(t *testing.T) {
	g := gen.Ring(4)
	s, _ := NewSystem(g)
	x, err := s.Solve(make([]float64, 4), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("zero rhs should give zero solution")
		}
	}
}

func TestEffectiveResistanceSeries(t *testing.T) {
	// Path of 3 unit edges: R_eff(0,3) = 3.
	g := graph.New(4)
	g.AddUnitEdge(0, 1)
	g.AddUnitEdge(1, 2)
	g.AddUnitEdge(2, 3)
	s, _ := NewSystem(g)
	r, err := s.effectiveResistance(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-3) > 1e-6 {
		t.Fatalf("series resistance=%v, want 3", r)
	}
	if r0, _ := s.effectiveResistance(2, 2); r0 != 0 {
		t.Fatalf("self resistance=%v", r0)
	}
}

func TestEffectiveResistanceParallel(t *testing.T) {
	// Two parallel unit edges: R_eff = 1/2.
	g := graph.New(2)
	g.AddUnitEdge(0, 1)
	g.AddUnitEdge(0, 1)
	s, _ := NewSystem(g)
	r, err := s.effectiveResistance(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-0.5) > 1e-6 {
		t.Fatalf("parallel resistance=%v, want 0.5", r)
	}
}

func TestEffectiveResistanceCapacityWeighting(t *testing.T) {
	// One edge of capacity 4 = conductance 4: R_eff = 1/4.
	g := graph.New(2)
	g.AddEdge(0, 1, 4)
	s, _ := NewSystem(g)
	r, err := s.effectiveResistance(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-0.25) > 1e-6 {
		t.Fatalf("resistance=%v, want 0.25", r)
	}
}

func TestUnitFlowConservation(t *testing.T) {
	g := gen.Grid(4, 4)
	s, _ := NewSystem(g)
	flow, err := s.UnitFlow(0, 15)
	if err != nil {
		t.Fatal(err)
	}
	// Net divergence: +1 at src, -1 at dst, 0 elsewhere.
	div := make([]float64, g.NumVertices())
	for _, e := range g.Edges() {
		div[e.U] += flow[e.ID]
		div[e.V] -= flow[e.ID]
	}
	for v, d := range div {
		want := 0.0
		if v == 0 {
			want = 1
		} else if v == 15 {
			want = -1
		}
		if math.Abs(d-want) > 1e-6 {
			t.Fatalf("divergence at %d: %v, want %v", v, d, want)
		}
	}
}

func TestUnitFlowParallelSplitsEvenly(t *testing.T) {
	// Diamond with equal resistances: flow splits 50/50.
	g := graph.New(4)
	a1 := g.AddUnitEdge(0, 1)
	g.AddUnitEdge(1, 3)
	b1 := g.AddUnitEdge(0, 2)
	g.AddUnitEdge(2, 3)
	s, _ := NewSystem(g)
	flow, err := s.UnitFlow(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(flow[a1]-0.5) > 1e-6 || math.Abs(flow[b1]-0.5) > 1e-6 {
		t.Fatalf("split=%v/%v, want 0.5/0.5", flow[a1], flow[b1])
	}
}

func TestUnitFlowSelf(t *testing.T) {
	g := gen.Ring(4)
	s, _ := NewSystem(g)
	flow, err := s.UnitFlow(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flow {
		if f != 0 {
			t.Fatal("self flow should be zero")
		}
	}
}

func TestRayleighMonotonicity(t *testing.T) {
	// Adding an edge can only decrease effective resistance.
	g := gen.Ring(6)
	s1, _ := NewSystem(g)
	r1, err := s1.effectiveResistance(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	g2 := g.Clone()
	g2.AddUnitEdge(0, 3)
	s2, _ := NewSystem(g2)
	r2, err := s2.effectiveResistance(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r2 > r1+1e-9 {
		t.Fatalf("adding an edge increased resistance: %v -> %v", r1, r2)
	}
}
