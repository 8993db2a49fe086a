// Package lp provides a dense two-phase simplex solver for small linear
// programs in nonnegative variables.
//
// Its role in the reproduction is exactness: the semi-oblivious adaptation
// step (Stage 4 of the paper's evaluation protocol, Definition 5.1) is a
// small LP once the path system is fixed, and the multiplicative-weights
// solvers in internal/mcf are validated against this solver on small
// instances.
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// Relation is the comparison direction of one constraint row.
type Relation int

const (
	// LE encodes a·x <= b.
	LE Relation = iota
	// GE encodes a·x >= b.
	GE
	// EQ encodes a·x == b.
	EQ
)

// Problem is the LP: minimize C·x subject to A[i]·x (Rel[i]) B[i], x >= 0.
type Problem struct {
	C   []float64   // length n
	A   [][]float64 // m rows, each length n
	B   []float64   // length m
	Rel []Relation  // length m
}

// Errors returned by Solve.
var (
	errInfeasible = errors.New("lp: infeasible")
	errUnbounded  = errors.New("lp: unbounded")
	// errNumerical is returned when the final basis fails verification
	// against the original constraints — callers should fall back to an
	// iterative solver.
	errNumerical = errors.New("lp: numerical instability detected")
)

const (
	eps = 1e-9
	// pivotTol is the minimum magnitude of an acceptable pivot element;
	// pivoting on near-zero entries multiplies rounding error by its
	// reciprocal and can silently corrupt the basis.
	pivotTol = 1e-7
)

// Solution holds the optimum.
type Solution struct {
	X     []float64
	Value float64
}

// Solve runs two-phase simplex with Bland's anti-cycling rule. It is
// intended for the repository's small validation LPs (hundreds of variables
// and constraints), not for large-scale optimization.
func (p *Problem) Solve() (*Solution, error) {
	return p.SolveCtx(context.Background())
}

// SolveCtx is Solve under a context: the pivot loop polls ctx every batch of
// pivots and aborts with ctx.Err() when it is canceled, so a caller that
// missed its deadline stops the solve instead of orphaning it.
func (p *Problem) SolveCtx(ctx context.Context) (*Solution, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := len(p.C)
	m := len(p.A)
	if len(p.B) != m || len(p.Rel) != m {
		return nil, fmt.Errorf("lp: inconsistent sizes: m=%d |B|=%d |Rel|=%d", m, len(p.B), len(p.Rel))
	}
	for i, row := range p.A {
		if len(row) != n {
			return nil, fmt.Errorf("lp: row %d has %d entries, want %d", i, len(row), n)
		}
	}

	// Normalize to b >= 0.
	a := make([][]float64, m)
	b := make([]float64, m)
	rel := make([]Relation, m)
	for i := range p.A {
		a[i] = append([]float64(nil), p.A[i]...)
		b[i] = p.B[i]
		rel[i] = p.Rel[i]
		if b[i] < 0 {
			for j := range a[i] {
				a[i][j] = -a[i][j]
			}
			b[i] = -b[i]
			switch rel[i] {
			case LE:
				rel[i] = GE
			case GE:
				rel[i] = LE
			}
		}
	}

	// Column layout: [x (n)] [slack/surplus (m, zero-width for EQ)] [artificial].
	// We allocate one slack column per row for simplicity; EQ rows get width 0
	// by leaving their slack coefficient zero and never using it.
	numSlack := 0
	slackCol := make([]int, m)
	for i := range rel {
		if rel[i] != EQ {
			slackCol[i] = n + numSlack
			numSlack++
		} else {
			slackCol[i] = -1
		}
	}
	numArt := 0
	artCol := make([]int, m)
	for i := range rel {
		if rel[i] == LE {
			artCol[i] = -1 // slack serves as the basis
		} else {
			artCol[i] = n + numSlack + numArt
			numArt++
		}
	}
	total := n + numSlack + numArt

	// Tableau: m rows x (total+1) columns, last column = RHS.
	tab := make([][]float64, m)
	basis := make([]int, m)
	for i := 0; i < m; i++ {
		tab[i] = make([]float64, total+1)
		copy(tab[i], a[i])
		if sc := slackCol[i]; sc >= 0 {
			if rel[i] == LE {
				tab[i][sc] = 1
			} else {
				tab[i][sc] = -1
			}
		}
		if ac := artCol[i]; ac >= 0 {
			tab[i][ac] = 1
			basis[i] = ac
		} else {
			basis[i] = slackCol[i]
		}
		tab[i][total] = b[i]
	}

	// Phase 1: minimize the sum of artificials.
	if numArt > 0 {
		obj := make([]float64, total+1)
		// Phase-1 cost is 1 on every artificial column; reduced costs are
		// obtained by subtracting the rows in which artificials are basic.
		for i := 0; i < m; i++ {
			if artCol[i] >= 0 {
				obj[artCol[i]] = 1
			}
		}
		for i := 0; i < m; i++ {
			if artCol[i] >= 0 {
				for j := 0; j <= total; j++ {
					obj[j] -= tab[i][j]
				}
			}
		}
		if err := runSimplex(ctx, tab, basis, obj, total); err != nil {
			return nil, err
		}
		if -obj[total] > 1e-7 {
			return nil, errInfeasible
		}
		// Drive remaining artificials out of the basis.
		for i := 0; i < m; i++ {
			if basis[i] < n+numSlack {
				continue
			}
			pivoted := false
			for j := 0; j < n+numSlack; j++ {
				if math.Abs(tab[i][j]) > pivotTol {
					pivot(tab, basis, obj, i, j, total)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant row: zero it out; the artificial stays basic at 0.
				for j := 0; j <= total; j++ {
					tab[i][j] = 0
				}
			}
		}
	}

	// Phase 2: minimize the original objective (artificial columns frozen).
	obj := make([]float64, total+1)
	copy(obj, p.C)
	// Express the objective in terms of non-basic variables.
	for i := 0; i < m; i++ {
		bi := basis[i]
		if bi < len(p.C) && math.Abs(obj[bi]) > eps {
			coef := obj[bi]
			for j := 0; j <= total; j++ {
				obj[j] -= float64(coef * tab[i][j])
			}
		}
	}
	// Freeze artificials: they must never re-enter.
	limit := n + numSlack
	if err := runSimplexLimited(ctx, tab, basis, obj, total, limit); err != nil {
		return nil, err
	}

	x := make([]float64, n)
	for i := 0; i < m; i++ {
		if basis[i] < n {
			x[basis[i]] = tab[i][total]
		}
	}
	// Verify the solution against the ORIGINAL constraints: accumulated
	// rounding (or a tiny pivot that slipped through) can corrupt the basis
	// without tripping any earlier check. Tolerance scales with row norms.
	for i := range p.A {
		var dot, scale float64
		for j := range p.A[i] {
			dot += float64(p.A[i][j] * x[j])
			if a := math.Abs(p.A[i][j] * x[j]); a > scale {
				scale = a
			}
		}
		tol := float64(1e-6 * (1 + scale + math.Abs(p.B[i])))
		switch p.Rel[i] {
		case LE:
			if dot > p.B[i]+tol {
				return nil, errNumerical
			}
		case GE:
			if dot < p.B[i]-tol {
				return nil, errNumerical
			}
		case EQ:
			if math.Abs(dot-p.B[i]) > tol {
				return nil, errNumerical
			}
		}
	}
	for j := range x {
		if x[j] < -1e-6 {
			return nil, errNumerical
		}
		if x[j] < 0 {
			x[j] = 0
		}
	}
	var val float64
	for j := 0; j < n; j++ {
		val += float64(p.C[j] * x[j])
	}
	return &Solution{X: x, Value: val}, nil
}

// ctxCheckInterval is how many pivots pass between ctx.Err() polls: frequent
// enough that cancellation lands within a handful of pivots, rare enough that
// the poll never shows up in a profile.
const ctxCheckInterval = 16

// runSimplex performs simplex iterations over all columns.
func runSimplex(ctx context.Context, tab [][]float64, basis []int, obj []float64, total int) error {
	return runSimplexLimited(ctx, tab, basis, obj, total, total)
}

// runSimplexLimited restricts entering variables to columns < limit.
func runSimplexLimited(ctx context.Context, tab [][]float64, basis []int, obj []float64, total, limit int) error {
	m := len(tab)
	maxIter := 8000 + 50*(m+total)
	for iter := 0; iter < maxIter; iter++ {
		if iter%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		// Bland's rule: smallest-index column with negative reduced cost.
		col := -1
		for j := 0; j < limit; j++ {
			if obj[j] < -eps {
				col = j
				break
			}
		}
		if col < 0 {
			return nil // optimal
		}
		// Ratio test, Bland tie-break on basis index.
		row := -1
		best := math.Inf(1)
		for i := 0; i < m; i++ {
			if tab[i][col] > pivotTol {
				ratio := tab[i][total] / tab[i][col]
				if ratio < best-eps || (ratio < best+eps && (row < 0 || basis[i] < basis[row])) {
					best = ratio
					row = i
				}
			}
		}
		if row < 0 {
			return errUnbounded
		}
		pivot(tab, basis, obj, row, col, total)
	}
	return errors.New("lp: iteration limit exceeded")
}

func pivot(tab [][]float64, basis []int, obj []float64, row, col, total int) {
	pv := tab[row][col]
	inv := 1 / pv
	for j := 0; j <= total; j++ {
		tab[row][j] *= inv
	}
	tab[row][col] = 1 // exact
	for i := range tab {
		if i == row {
			continue
		}
		f := tab[i][col]
		if math.Abs(f) <= eps {
			tab[i][col] = 0
			continue
		}
		for j := 0; j <= total; j++ {
			tab[i][j] -= float64(f * tab[row][j])
		}
		tab[i][col] = 0
	}
	f := obj[col]
	if math.Abs(f) > eps {
		for j := 0; j <= total; j++ {
			obj[j] -= float64(f * tab[row][j])
		}
		obj[col] = 0
	}
	basis[row] = col
}
