package demand

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"sparseroute/internal/graph/gen"
)

func TestMakePairCanonical(t *testing.T) {
	if MakePair(3, 1) != (Pair{U: 1, V: 3}) {
		t.Fatal("pair not canonicalized")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("self-pair should panic")
		}
	}()
	MakePair(2, 2)
}

func TestSetGetSymmetric(t *testing.T) {
	d := New()
	d.Set(4, 2, 1.5)
	if d.Get(2, 4) != 1.5 || d.Get(4, 2) != 1.5 {
		t.Fatal("demand not symmetric in endpoints")
	}
	d.Set(2, 4, 0)
	if d.Get(2, 4) != 0 || d.SupportSize() != 0 {
		t.Fatal("zero set should remove the pair")
	}
}

func TestAddAccumulates(t *testing.T) {
	d := New()
	d.Add(0, 1, 1)
	d.Add(1, 0, 2)
	if d.Get(0, 1) != 3 {
		t.Fatalf("got %v, want 3", d.Get(0, 1))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive Add should panic")
		}
	}()
	d.Add(0, 1, 0)
}

func TestSizeSupportMax(t *testing.T) {
	d := New()
	d.Set(0, 1, 2)
	d.Set(2, 3, 0.5)
	if d.Size() != 2.5 {
		t.Fatalf("size=%v", d.Size())
	}
	if d.MaxEntry() != 2 {
		t.Fatalf("max=%v", d.MaxEntry())
	}
	sup := d.Support()
	if len(sup) != 2 || sup[0] != (Pair{0, 1}) || sup[1] != (Pair{2, 3}) {
		t.Fatalf("support=%v", sup)
	}
}

// TestSupportOrder pins Support's (U, V) order, ties on U included.
func TestSupportOrder(t *testing.T) {
	d := New()
	for _, uv := range [][2]int{{2, 3}, {5, 0}, {0, 1}, {4, 1}, {0, 3}} {
		d.Set(uv[0], uv[1], 1)
	}
	want := []Pair{{0, 1}, {0, 3}, {0, 5}, {1, 4}, {2, 3}}
	if got := d.Support(); !slices.Equal(got, want) {
		t.Fatalf("Support() = %v, want %v", got, want)
	}
}

func TestClassPredicates(t *testing.T) {
	d := New()
	d.Set(0, 1, 1)
	d.Set(2, 3, 1)
	if !d.IsIntegral() || !d.isADemand(1) || !d.IsPermutation() {
		t.Fatal("perfect matching demand misclassified")
	}
	d.Set(4, 5, 0.5)
	if d.IsIntegral() || d.IsPermutation() {
		t.Fatal("fractional entry not detected")
	}
	if !d.isADemand(1) || d.isADemand(0.4) {
		t.Fatal("A-demand threshold wrong")
	}
	shared := New()
	shared.Set(0, 1, 1)
	shared.Set(1, 2, 1) // vertex 1 shared: not a permutation
	if shared.IsPermutation() {
		t.Fatal("shared endpoint should disqualify permutation")
	}
}

func TestAlgebra(t *testing.T) {
	a := New()
	a.Set(0, 1, 2)
	b := New()
	b.Set(0, 1, 1)
	b.Set(2, 3, 1)
	s := New()
	s.Set(0, 1, 3)
	s.Set(2, 3, 1)
	diff := Sub(s, b)
	if !Equal(diff, a, 1e-12) {
		t.Fatalf("sub wrong: %v", diff)
	}
	half := a.Scale(0.5)
	if half.Get(0, 1) != 1 {
		t.Fatalf("scale wrong: %v", half)
	}
	if a.Get(0, 1) != 2 {
		t.Fatal("scale mutated original")
	}
	empty := a.Scale(0)
	if empty.SupportSize() != 0 {
		t.Fatal("zero scale should be empty")
	}
}

func TestRestrict(t *testing.T) {
	d := New()
	d.Set(0, 1, 1)
	d.Set(2, 3, 2)
	r := d.Restrict(func(p Pair) bool { return p.U == 0 })
	if r.SupportSize() != 1 || r.Get(0, 1) != 1 {
		t.Fatalf("restrict wrong: %v", r)
	}
}

func TestIsSpecial(t *testing.T) {
	k := func(p Pair) int { return 4 }
	d := New()
	d.Set(0, 1, 2) // ratio 0.5
	d.Set(2, 3, 2)
	if !d.isSpecial(0.5, k, 1e-12) {
		t.Fatal("uniform-ratio demand should be special")
	}
	d.Set(4, 5, 1) // ratio 0.25
	if d.isSpecial(0.5, k, 1e-12) {
		t.Fatal("mixed-ratio demand should not be special")
	}
}

func TestBucketsRatioSpread(t *testing.T) {
	k := func(p Pair) int { return 2 }
	d := New()
	d.Set(0, 1, 8) // ratio 4
	d.Set(2, 3, 4) // ratio 2
	d.Set(4, 5, 1) // ratio 0.5
	bs := d.Buckets(k, 10)
	// Within each bucket, ratios must be within a factor of 2.
	total := 0.0
	for _, b := range bs {
		var lo, hi float64 = math.Inf(1), 0
		for _, p := range b.Support() {
			r := b.Get(p.U, p.V) / float64(k(p))
			if r < lo {
				lo = r
			}
			if r > hi {
				hi = r
			}
		}
		if hi > 2*lo*(1+1e-9) {
			t.Fatalf("bucket ratio spread too wide: [%v,%v]", lo, hi)
		}
		total += b.Size()
	}
	if math.Abs(total-d.Size()) > 1e-9 {
		t.Fatalf("buckets lose demand: %v vs %v", total, d.Size())
	}
}

func TestBucketsEmptyDemand(t *testing.T) {
	if bs := New().Buckets(func(Pair) int { return 1 }, 4); bs != nil {
		t.Fatalf("empty demand should produce no buckets, got %d", len(bs))
	}
}

func TestRandomPermutation(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	d := RandomPermutation(20, 7, rng)
	if d.SupportSize() != 7 || !d.IsPermutation() {
		t.Fatalf("bad permutation demand: %v", d)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("oversized permutation should panic")
		}
	}()
	RandomPermutation(5, 3, rng)
}

func TestFullPermutationCoversAllVertices(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	d := fullPermutation(10, rng)
	seen := map[int]bool{}
	for _, p := range d.Support() {
		seen[p.U] = true
		seen[p.V] = true
	}
	if len(seen) != 10 {
		t.Fatalf("full permutation covers %d vertices", len(seen))
	}
}

func TestTranspose(t *testing.T) {
	d := Transpose(4) // 16 vertices, hi/lo swap
	if !d.IsPermutation() {
		t.Fatal("transpose should be a permutation demand")
	}
	// v = 0b0110 (hi=01, lo=10) pairs with 0b1001.
	if d.Get(0b0110, 0b1001) != 1 {
		t.Fatal("transpose pairing wrong")
	}
	// Fixed points (hi == lo) are excluded: 0b0101 maps to itself.
	if d.Get(0b0101, 0b0101+1) == 1 && false {
		t.Fatal("unreachable")
	}
	for _, p := range d.Support() {
		if p.U == 0b0101 || p.V == 0b0101 {
			t.Fatal("fixed point should not appear")
		}
	}
}

func TestBitReversal(t *testing.T) {
	d := BitReversal(3)
	if !d.IsPermutation() {
		t.Fatal("bit reversal should be a permutation demand")
	}
	// 0b001 reverses to 0b100.
	if d.Get(0b001, 0b100) != 1 {
		t.Fatal("bit reversal pairing wrong")
	}
}

func TestUniformPairs(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 3))
	d := UniformPairs(15, 10, 2.5, rng)
	if d.SupportSize() != 10 {
		t.Fatalf("pairs=%d", d.SupportSize())
	}
	for _, p := range d.Support() {
		if d.Get(p.U, p.V) != 2.5 {
			t.Fatal("wrong amount")
		}
	}
}

func TestGravity(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	g := gen.Hypercube(4)
	d := Gravity(g, 100, 20, rng)
	if d.SupportSize() != 20 {
		t.Fatalf("pairs=%d, want 20", d.SupportSize())
	}
	if math.Abs(d.Size()-100) > 1e-6 {
		t.Fatalf("total=%v, want 100", d.Size())
	}
}

func TestSpecialConstructor(t *testing.T) {
	pairs := []Pair{{0, 1}, {2, 3}}
	k := func(p Pair) int {
		if p.U == 0 {
			return 2
		}
		return 6
	}
	d := special(pairs, 0.5, k)
	if d.Get(0, 1) != 1 || d.Get(2, 3) != 3 {
		t.Fatalf("special demand wrong: %v", d)
	}
	if !d.isSpecial(0.5, k, 1e-12) {
		t.Fatal("constructed special demand fails predicate")
	}
}

func TestRoundIntegral(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 19))
	d := New()
	d.Set(0, 1, 2.5)
	d.Set(2, 3, 3) // already integral: unchanged
	d.Set(4, 5, 0.2)
	r := d.roundIntegral(rng)
	if !r.IsIntegral() {
		t.Fatal("rounded demand not integral")
	}
	if r.Get(2, 3) != 3 {
		t.Fatalf("integral entry changed: %v", r.Get(2, 3))
	}
	if v := r.Get(0, 1); v != 2 && v != 3 {
		t.Fatalf("2.5 rounded to %v", v)
	}
	// Expectation preserved over many trials.
	var sum float64
	const trials = 2000
	for i := 0; i < trials; i++ {
		sum += d.roundIntegral(rng).Get(0, 1)
	}
	if mean := sum / trials; math.Abs(mean-2.5) > 0.1 {
		t.Fatalf("rounding biased: mean %v, want 2.5", mean)
	}
}

func TestSumScalePropertySizeLinear(t *testing.T) {
	f := func(seed uint64, scaleRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		a := UniformPairs(30, 5, 1+rng.Float64(), rng)
		c := float64(scaleRaw%8) / 2
		lhs := a.Scale(c).Size()
		rhs := c * a.Size()
		return math.Abs(lhs-rhs) < 1e-9*(1+rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
