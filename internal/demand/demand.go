// Package demand models demand matrices (Definition 2.2 of the paper) and
// the demand classes the analysis distinguishes: integral demands, A-demands
// (all entries at most A), permutation demands, and the θ-special demands of
// Definition 5.5. It also provides the demand algebra used by the reductions
// (sum and scaling, Lemma 5.15) and the power-of-two bucketing behind the
// special-to-general reduction (Lemma 5.9).
package demand

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
)

// Pair is an unordered vertex pair, stored canonically with U < V.
type Pair struct {
	U, V int
}

// MakePair canonicalizes (u, v). It panics on u == v: demands between a
// vertex and itself are disallowed by Definition 2.2.
func MakePair(u, v int) Pair {
	if u == v {
		panic(fmt.Sprintf("demand: self-pair (%d,%d)", u, v))
	}
	if u > v {
		u, v = v, u
	}
	return Pair{U: u, V: v}
}

// Demand maps vertex pairs to nonnegative amounts. The zero value is the
// empty demand.
type Demand struct {
	m map[Pair]float64
}

// New returns an empty demand.
func New() *Demand { return &Demand{m: make(map[Pair]float64)} }

// Set assigns d(u,v) = amount. Zero or negative amounts remove the pair.
func (d *Demand) Set(u, v int, amount float64) {
	if d.m == nil {
		d.m = make(map[Pair]float64)
	}
	p := MakePair(u, v)
	if amount <= 0 {
		delete(d.m, p)
		return
	}
	d.m[p] = amount
}

// Add increments d(u,v) by amount (which must be positive).
func (d *Demand) Add(u, v int, amount float64) {
	if amount <= 0 {
		panic("demand: Add requires a positive amount")
	}
	if d.m == nil {
		d.m = make(map[Pair]float64)
	}
	d.m[MakePair(u, v)] += amount
}

// Get returns d(u,v), zero when absent.
func (d *Demand) Get(u, v int) float64 {
	if d.m == nil {
		return 0
	}
	return d.m[MakePair(u, v)]
}

// Support returns the pairs with positive demand, sorted for determinism.
func (d *Demand) Support() []Pair {
	out := make([]Pair, 0, len(d.m))
	for p := range d.m {
		out = append(out, p)
	}
	slices.SortFunc(out, func(a, b Pair) int {
		if c := cmp.Compare(a.U, b.U); c != 0 {
			return c
		}
		return cmp.Compare(a.V, b.V)
	})
	return out
}

// SupportSize returns |supp(d)|.
func (d *Demand) SupportSize() int { return len(d.m) }

// Size returns the total demand Σ d(u,v) (the paper's |d|).
func (d *Demand) Size() float64 {
	var s float64
	for _, v := range d.m {
		s += v
	}
	return s
}

// MaxEntry returns the largest single-pair demand (0 for the empty demand).
func (d *Demand) MaxEntry() float64 {
	var mx float64
	for _, v := range d.m {
		if v > mx {
			mx = v
		}
	}
	return mx
}

// IsIntegral reports whether every entry is an integer (within 1e-9).
func (d *Demand) IsIntegral() bool {
	for _, v := range d.m {
		if math.Abs(v-math.Round(v)) > 1e-9 {
			return false
		}
	}
	return true
}

// isADemand reports whether every entry is at most a (an "A-demand").
func (d *Demand) isADemand(a float64) bool {
	for _, v := range d.m {
		if v > a+1e-12 {
			return false
		}
	}
	return true
}

// IsPermutation reports whether d is a permutation demand: a 1-demand in
// which every vertex appears in at most one demand pair.
func (d *Demand) IsPermutation() bool {
	seen := make(map[int]bool, 2*len(d.m))
	for p, v := range d.m {
		if math.Abs(v-1) > 1e-12 {
			return false
		}
		if seen[p.U] || seen[p.V] {
			return false
		}
		seen[p.U] = true
		seen[p.V] = true
	}
	return true
}

// Clone returns a deep copy.
func (d *Demand) Clone() *Demand {
	out := New()
	for p, v := range d.m {
		out.m[p] = v
	}
	return out
}

// Scale returns d scaled by factor >= 0.
func (d *Demand) Scale(factor float64) *Demand {
	if factor < 0 {
		panic("demand: negative scale factor")
	}
	out := New()
	if factor == 0 {
		return out
	}
	for p, v := range d.m {
		out.m[p] = v * factor
	}
	return out
}

// Sub returns a - b with negative results clamped to zero (used when routing
// "the remaining half" in the weak-to-strong reduction, Lemma 5.8).
func Sub(a, b *Demand) *Demand {
	out := New()
	for p, v := range a.m {
		r := v - b.m[p]
		if r > 1e-12 {
			out.m[p] = r
		}
	}
	return out
}

// Restrict returns the restriction of d to the pairs where keep returns true.
func (d *Demand) Restrict(keep func(Pair) bool) *Demand {
	out := New()
	for p, v := range d.m {
		if keep(p) {
			out.m[p] = v
		}
	}
	return out
}

// L1 returns Σ_p |a(p) - b(p)|, the total-variation-style distance between
// two demand matrices. Warm-start drift guards compare it against a.Size()
// to decide whether successive epochs are close enough to reuse a prior.
func L1(a, b *Demand) float64 {
	var s float64
	for p, v := range a.m {
		s += math.Abs(v - b.m[p])
	}
	for p, v := range b.m {
		if _, ok := a.m[p]; !ok {
			s += v
		}
	}
	return s
}

// Equal reports whether two demands agree within tol on every pair.
func Equal(a, b *Demand, tol float64) bool {
	for p, v := range a.m {
		if math.Abs(v-b.m[p]) > tol {
			return false
		}
	}
	for p, v := range b.m {
		if math.Abs(v-a.m[p]) > tol {
			return false
		}
	}
	return true
}

// String summarizes the demand.
func (d *Demand) String() string {
	return fmt.Sprintf("demand{pairs=%d size=%.3g max=%.3g}", len(d.m), d.Size(), d.MaxEntry())
}

// isSpecial reports whether d is θ-special w.r.t. the per-pair path counts
// returned by numPaths (Definition 5.5): for every pair, d(u,v)/numPaths(u,v)
// is either 0 or exactly θ (within tol).
func (d *Demand) isSpecial(theta float64, numPaths func(Pair) int, tol float64) bool {
	for p, v := range d.m {
		k := numPaths(p)
		if k <= 0 {
			return false
		}
		if math.Abs(v/float64(k)-theta) > tol {
			return false
		}
	}
	return true
}

// roundIntegral randomly rounds each entry to one of its neighboring
// integers, preserving the expectation (⌊x⌋ with probability ⌈x⌉-x, else
// ⌈x⌉). Zero results drop the pair. Useful when a fractional traffic matrix
// must be fed to integral (packet-level) routing.
func (d *Demand) roundIntegral(rng *rand.Rand) *Demand {
	out := New()
	for p, v := range d.m {
		lo := math.Floor(v)
		frac := v - lo
		rounded := lo
		if rng.Float64() < frac {
			rounded = lo + 1
		}
		if rounded > 0 {
			out.m[p] = rounded
		}
	}
	return out
}

// Buckets splits d into power-of-two ratio buckets (the Lemma 5.9
// special-to-general reduction): pair p with ratio r(p) = d(p)/numPaths(p)
// lands in bucket ⌊log2(rMax/r(p))⌋, so within a bucket all ratios are within
// a factor 2 of each other. Pairs with ratio below rMax/2^maxBuckets are
// dropped into the final bucket regardless (they are negligible in the
// reduction; keeping them preserves totals for the experiments). The returned
// slice has no empty buckets.
func (d *Demand) Buckets(numPaths func(Pair) int, maxBuckets int) []*Demand {
	if maxBuckets < 1 {
		panic("demand: need at least one bucket")
	}
	var rMax float64
	for p, v := range d.m {
		if k := numPaths(p); k > 0 {
			if r := v / float64(k); r > rMax {
				rMax = r
			}
		}
	}
	if rMax == 0 {
		return nil
	}
	buckets := make([]*Demand, maxBuckets)
	for p, v := range d.m {
		k := numPaths(p)
		if k <= 0 {
			continue
		}
		r := v / float64(k)
		idx := int(math.Floor(math.Log2(rMax / r)))
		if idx < 0 {
			idx = 0
		}
		if idx >= maxBuckets {
			idx = maxBuckets - 1
		}
		if buckets[idx] == nil {
			buckets[idx] = New()
		}
		buckets[idx].m[p] = v
	}
	var out []*Demand
	for _, b := range buckets {
		if b != nil {
			out = append(out, b)
		}
	}
	return out
}
