package lp

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSimpleMaximizationAsMin(t *testing.T) {
	// max 3x + 2y s.t. x + y <= 4, x + 3y <= 6  => min -3x -2y.
	// Optimum: x=4, y=0, value 12.
	p := Problem{
		C:   []float64{-3, -2},
		A:   [][]float64{{1, 1}, {1, 3}},
		B:   []float64{4, 6},
		Rel: []Relation{LE, LE},
	}
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s.Value, -12, 1e-7) {
		t.Fatalf("value=%v, want -12", s.Value)
	}
	if !approx(s.X[0], 4, 1e-7) || !approx(s.X[1], 0, 1e-7) {
		t.Fatalf("x=%v", s.X)
	}
}

func TestEqualityConstraints(t *testing.T) {
	// min x + 2y s.t. x + y = 3, x <= 2. Optimum x=2, y=1, value 4.
	p := Problem{
		C:   []float64{1, 2},
		A:   [][]float64{{1, 1}, {1, 0}},
		B:   []float64{3, 2},
		Rel: []Relation{EQ, LE},
	}
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s.Value, 4, 1e-7) {
		t.Fatalf("value=%v, want 4", s.Value)
	}
}

func TestGEConstraints(t *testing.T) {
	// min 2x + y s.t. x + y >= 3, x >= 1. Optimum x=1, y=2, value 4.
	p := Problem{
		C:   []float64{2, 1},
		A:   [][]float64{{1, 1}, {1, 0}},
		B:   []float64{3, 1},
		Rel: []Relation{GE, GE},
	}
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s.Value, 4, 1e-7) {
		t.Fatalf("value=%v, want 4", s.Value)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// min x s.t. -x <= -2  (i.e. x >= 2). Optimum 2.
	p := Problem{
		C:   []float64{1},
		A:   [][]float64{{-1}},
		B:   []float64{-2},
		Rel: []Relation{LE},
	}
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s.Value, 2, 1e-7) {
		t.Fatalf("value=%v, want 2", s.Value)
	}
}

func TestInfeasible(t *testing.T) {
	// x <= 1 and x >= 2.
	p := Problem{
		C:   []float64{1},
		A:   [][]float64{{1}, {1}},
		B:   []float64{1, 2},
		Rel: []Relation{LE, GE},
	}
	if _, err := p.Solve(); err != errInfeasible {
		t.Fatalf("want errInfeasible, got %v", err)
	}
}

func TestUnbounded(t *testing.T) {
	// min -x s.t. x >= 0 (no upper bound).
	p := Problem{
		C:   []float64{-1},
		A:   [][]float64{{1}},
		B:   []float64{0},
		Rel: []Relation{GE},
	}
	if _, err := p.Solve(); err != errUnbounded {
		t.Fatalf("want errUnbounded, got %v", err)
	}
}

func TestDegenerateDoesNotCycle(t *testing.T) {
	// Classic Beale cycling example (with Bland's rule it must terminate).
	p := Problem{
		C: []float64{-0.75, 150, -0.02, 6},
		A: [][]float64{
			{0.25, -60, -0.04, 9},
			{0.5, -90, -0.02, 3},
			{0, 0, 1, 0},
		},
		B:   []float64{0, 0, 1},
		Rel: []Relation{LE, LE, LE},
	}
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s.Value, -0.05, 1e-7) {
		t.Fatalf("value=%v, want -0.05", s.Value)
	}
}

func TestRedundantEqualityRows(t *testing.T) {
	// Duplicate equality rows must not break phase 1 cleanup.
	p := Problem{
		C:   []float64{1, 1},
		A:   [][]float64{{1, 1}, {1, 1}, {1, 0}},
		B:   []float64{2, 2, 0.5},
		Rel: []Relation{EQ, EQ, GE},
	}
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s.Value, 2, 1e-7) {
		t.Fatalf("value=%v, want 2", s.Value)
	}
}

func TestSizeValidation(t *testing.T) {
	p := Problem{C: []float64{1}, A: [][]float64{{1, 2}}, B: []float64{1}, Rel: []Relation{LE}}
	if _, err := p.Solve(); err == nil {
		t.Fatal("mismatched row width should error")
	}
	p2 := Problem{C: []float64{1}, A: [][]float64{{1}}, B: []float64{1, 2}, Rel: []Relation{LE}}
	if _, err := p2.Solve(); err == nil {
		t.Fatal("mismatched B length should error")
	}
}

// TestMinCongestionToyRouting encodes the repository's primary use: route 2
// units over two parallel 2-edge paths minimizing max edge load z.
func TestMinCongestionToyRouting(t *testing.T) {
	// Variables: x1 (path A), x2 (path B), z.
	// x1 + x2 = 2; x1 - z <= 0; x2 - z <= 0; min z. Optimum z = 1.
	p := Problem{
		C: []float64{0, 0, 1},
		A: [][]float64{
			{1, 1, 0},
			{1, 0, -1},
			{0, 1, -1},
		},
		B:   []float64{2, 0, 0},
		Rel: []Relation{EQ, LE, LE},
	}
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s.Value, 1, 1e-7) {
		t.Fatalf("congestion=%v, want 1", s.Value)
	}
	if !approx(s.X[0], 1, 1e-6) || !approx(s.X[1], 1, 1e-6) {
		t.Fatalf("split=%v, want [1 1]", s.X[:2])
	}
}

// Property-style test: random feasible LPs must satisfy their constraints at
// the reported optimum, and the optimum must not beat a known feasible point.
func TestRandomLPsFeasibleOptimum(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.IntN(4)
		m := 1 + rng.IntN(4)
		// Construct around a known feasible point x* >= 0.
		xstar := make([]float64, n)
		for j := range xstar {
			xstar[j] = rng.Float64() * 3
		}
		p := Problem{C: make([]float64, n)}
		for j := range p.C {
			p.C[j] = rng.Float64() // nonnegative objective => bounded below by 0
		}
		for i := 0; i < m; i++ {
			row := make([]float64, n)
			var dot float64
			for j := range row {
				row[j] = rng.Float64()*2 - 0.5
				dot += row[j] * xstar[j]
			}
			p.A = append(p.A, row)
			// Make x* feasible for the chosen relation.
			r := Relation(rng.IntN(3))
			switch r {
			case LE:
				p.B = append(p.B, dot+rng.Float64())
			case GE:
				p.B = append(p.B, dot-rng.Float64())
			case EQ:
				p.B = append(p.B, dot)
			}
			p.Rel = append(p.Rel, r)
		}
		s, err := p.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Check feasibility of the reported solution.
		for i := range p.A {
			var dot float64
			for j := range p.A[i] {
				dot += p.A[i][j] * s.X[j]
			}
			switch p.Rel[i] {
			case LE:
				if dot > p.B[i]+1e-6 {
					t.Fatalf("trial %d row %d: %v > %v", trial, i, dot, p.B[i])
				}
			case GE:
				if dot < p.B[i]-1e-6 {
					t.Fatalf("trial %d row %d: %v < %v", trial, i, dot, p.B[i])
				}
			case EQ:
				if math.Abs(dot-p.B[i]) > 1e-6 {
					t.Fatalf("trial %d row %d: %v != %v", trial, i, dot, p.B[i])
				}
			}
		}
		// Optimum must be <= value at the known feasible point.
		var vstar float64
		for j := range p.C {
			vstar += p.C[j] * xstar[j]
		}
		if s.Value > vstar+1e-6 {
			t.Fatalf("trial %d: optimum %v beats feasible %v the wrong way", trial, s.Value, vstar)
		}
		// Nonnegativity.
		for j, x := range s.X {
			if x < -1e-7 {
				t.Fatalf("trial %d: x[%d]=%v negative", trial, j, x)
			}
		}
	}
}

// countdownCtx is a context whose Err() starts returning context.Canceled
// after a fixed number of polls: it lands the cancellation deterministically
// inside the pivot loop, between the entry check and optimality.
type countdownCtx struct {
	context.Context
	remaining int
}

func (c *countdownCtx) Err() error {
	if c.remaining <= 0 {
		return context.Canceled
	}
	c.remaining--
	return nil
}

func TestSolveCtxPreCanceled(t *testing.T) {
	p := Problem{
		C:   []float64{1},
		A:   [][]float64{{1}},
		B:   []float64{1},
		Rel: []Relation{GE},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.SolveCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled: err=%v, want context.Canceled", err)
	}
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := p.SolveCtx(dctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: err=%v, want context.DeadlineExceeded", err)
	}
	// A live context still solves to the same optimum as Solve.
	s, err := p.SolveCtx(context.Background())
	if err != nil || !approx(s.Value, 1, 1e-9) {
		t.Fatalf("live ctx: %v %+v", err, s)
	}
}

func TestSolveCtxMidPivotCancellation(t *testing.T) {
	// GE rows force a phase-1 run, so the pivot loop polls the context after
	// the entry check; the countdown lands the cancellation there.
	p := Problem{
		C:   []float64{1, 2, 3},
		A:   [][]float64{{1, 1, 0}, {0, 1, 1}, {1, 0, 1}},
		B:   []float64{2, 3, 4},
		Rel: []Relation{GE, GE, GE},
	}
	if _, err := p.SolveCtx(context.Background()); err != nil {
		t.Fatalf("sanity: LP should be solvable, got %v", err)
	}
	// One allowance covers the SolveCtx entry check; the next poll happens
	// inside runSimplexLimited and must abort the solve.
	ctx := &countdownCtx{Context: context.Background(), remaining: 1}
	if _, err := p.SolveCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-pivot: err=%v, want context.Canceled", err)
	}
}
