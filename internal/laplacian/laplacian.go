// Package laplacian solves graph Laplacian linear systems L·x = b with a
// Jacobi-preconditioned conjugate-gradient iteration.
//
// Its purpose in the reproduction is the electrical-flow oblivious routing
// (internal/oblivious): unit current injected at u and extracted at v has
// potentials φ = L⁺(e_u − e_v), and the induced edge flows form an acyclic
// unit u→v flow whose path decomposition is a classical oblivious routing
// distribution (an ablation sampler next to Räcke in E8/E9).
package laplacian

import (
	"errors"
	"fmt"
	"math"

	"sparseroute/internal/graph"
)

// System is a reusable Laplacian operator for one graph with conductances
// equal to edge capacities.
type System struct {
	g    *graph.Graph
	diag []float64
}

// NewSystem prepares the operator for g. The graph must be connected for
// solves to converge.
func NewSystem(g *graph.Graph) (*System, error) {
	if g.NumVertices() == 0 {
		return nil, errors.New("laplacian: empty graph")
	}
	if !g.Connected() {
		return nil, errors.New("laplacian: graph must be connected")
	}
	diag := make([]float64, g.NumVertices())
	for _, e := range g.Edges() {
		diag[e.U] += e.Capacity
		diag[e.V] += e.Capacity
	}
	return &System{g: g, diag: diag}, nil
}

// apply computes y = L·x.
func (s *System) apply(x, y []float64) {
	for i := range y {
		y[i] = s.diag[i] * x[i]
	}
	for _, e := range s.g.Edges() {
		y[e.U] -= e.Capacity * x[e.V]
		y[e.V] -= e.Capacity * x[e.U]
	}
}

// project removes the all-ones component (the Laplacian nullspace).
func project(x []float64) {
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	for i := range x {
		x[i] -= mean
	}
}

// Solve returns x with L·x = b (x orthogonal to the all-ones vector).
// b must sum to zero within tolerance. tol is the relative residual target
// (default 1e-9 when <= 0); maxIter defaults to 4n when <= 0.
func (s *System) Solve(b []float64, tol float64, maxIter int) ([]float64, error) {
	n := s.g.NumVertices()
	if len(b) != n {
		return nil, fmt.Errorf("laplacian: rhs has %d entries, want %d", len(b), n)
	}
	var sum, norm float64
	for _, v := range b {
		sum += v
		norm += v * v
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		return make([]float64, n), nil
	}
	if math.Abs(sum) > 1e-9*(1+norm) {
		return nil, fmt.Errorf("laplacian: rhs sums to %v, want 0", sum)
	}
	if tol <= 0 {
		tol = 1e-9
	}
	if maxIter <= 0 {
		maxIter = 4 * n
	}
	if maxIter < 50 {
		maxIter = 50
	}
	x := make([]float64, n)
	r := append([]float64(nil), b...)
	z := make([]float64, n)
	applyPrecond := func(dst, src []float64) {
		for i := range dst {
			if s.diag[i] > 0 {
				dst[i] = src[i] / s.diag[i]
			} else {
				dst[i] = src[i]
			}
		}
		project(dst)
	}
	applyPrecond(z, r)
	p := append([]float64(nil), z...)
	ap := make([]float64, n)
	rz := dot(r, z)
	for iter := 0; iter < maxIter; iter++ {
		s.apply(p, ap)
		pap := dot(p, ap)
		if pap <= 0 {
			break // numerical breakdown; return the current iterate
		}
		alpha := rz / pap
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		if resNorm(r) <= tol*norm {
			break
		}
		applyPrecond(z, r)
		rzNew := dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	if resNorm(r) > math.Sqrt(tol)*norm+1e-6*norm {
		return nil, fmt.Errorf("laplacian: CG failed to converge (residual %v)", resNorm(r)/norm)
	}
	project(x)
	return x, nil
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func resNorm(r []float64) float64 {
	return math.Sqrt(dot(r, r))
}

// UnitFlow computes the electrical unit flow from src to dst: per-edge
// signed flows (positive = U→V orientation) summing to a feasible unit flow.
func (s *System) UnitFlow(src, dst int) ([]float64, error) {
	if src == dst {
		return make([]float64, s.g.NumEdges()), nil
	}
	b := make([]float64, s.g.NumVertices())
	b[src] = 1
	b[dst] = -1
	phi, err := s.Solve(b, 1e-10, 0)
	if err != nil {
		return nil, err
	}
	flow := make([]float64, s.g.NumEdges())
	for _, e := range s.g.Edges() {
		flow[e.ID] = e.Capacity * (phi[e.U] - phi[e.V])
	}
	return flow, nil
}

// effectiveResistance returns the effective resistance between u and v.
func (s *System) effectiveResistance(u, v int) (float64, error) {
	if u == v {
		return 0, nil
	}
	b := make([]float64, s.g.NumVertices())
	b[u] = 1
	b[v] = -1
	phi, err := s.Solve(b, 1e-10, 0)
	if err != nil {
		return 0, err
	}
	return phi[u] - phi[v], nil
}
