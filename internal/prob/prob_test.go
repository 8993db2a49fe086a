package prob

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestChernoffUpperTailBasics(t *testing.T) {
	// Degenerate inputs give the trivial bound.
	if chernoffUpperTail(0, 1) != 1 || chernoffUpperTail(5, 0) != 1 {
		t.Fatal("degenerate inputs should give 1")
	}
	// Monotone: larger delta, smaller bound.
	if chernoffUpperTail(10, 1) <= chernoffUpperTail(10, 2) {
		t.Fatal("bound should decrease in delta")
	}
	// Larger mean, smaller bound at fixed delta.
	if chernoffUpperTail(5, 1) <= chernoffUpperTail(50, 1) {
		t.Fatal("bound should decrease in mu")
	}
	// Known value: mu=10, delta=1 -> exp(-10(2ln2 - 1)) ~ exp(-3.863).
	want := math.Exp(-10 * (2*math.Ln2 - 1))
	if got := chernoffUpperTail(10, 1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestChernoffAtLeast(t *testing.T) {
	if ChernoffAtLeast(10, 5) != 1 {
		t.Fatal("threshold below mean should give trivial bound")
	}
	if b := ChernoffAtLeast(10, 20); b != chernoffUpperTail(10, 1) {
		t.Fatalf("AtLeast inconsistent with UpperTail: %v", b)
	}
}

func TestChernoffLowerTail(t *testing.T) {
	if chernoffLowerTail(10, 0) != 1 {
		t.Fatal("delta=0 should give 1")
	}
	if b := chernoffLowerTail(10, 0.5); math.Abs(b-math.Exp(-10*0.25/2)) > 1e-12 {
		t.Fatalf("got %v", b)
	}
	// Clamped at delta=1.
	if chernoffLowerTail(10, 2) != chernoffLowerTail(10, 1) {
		t.Fatal("delta should clamp at 1")
	}
}

func TestChernoffValidAgainstSimulation(t *testing.T) {
	// The bound must actually bound: simulate binomial(60, 0.25), mu=15.
	rng := rand.New(rand.NewPCG(1, 1))
	const trials = 4000
	samples := make([]float64, trials)
	for i := range samples {
		c := 0
		for j := 0; j < 60; j++ {
			if rng.Float64() < 0.25 {
				c++
			}
		}
		samples[i] = float64(c)
	}
	for _, thresh := range []float64{20, 25, 30} {
		emp := empiricalTail(samples, thresh)
		bound := ChernoffAtLeast(15, thresh)
		if emp > bound+0.02 {
			t.Fatalf("empirical tail %v at %v exceeds Chernoff bound %v", emp, thresh, bound)
		}
	}
}

func TestLogBadPatternCount(t *testing.T) {
	if _, err := LogBadPatternCount(0, 1, 1); err == nil {
		t.Fatal("m=0 should error")
	}
	l1, err := LogBadPatternCount(100, 50, 10)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := LogBadPatternCount(100, 50, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Smaller minimum entries allow more patterns.
	if l2 < l1 {
		t.Fatalf("finer patterns should be more numerous: %v vs %v", l2, l1)
	}
	// Count must exceed 1 pattern (log > 0) for nontrivial inputs.
	if l1 <= 0 {
		t.Fatalf("log count %v should be positive", l1)
	}
}

func TestUnionBoundFailure(t *testing.T) {
	if unionBoundFailure(10, 0) != 0 {
		t.Fatal("zero per-event probability should give 0")
	}
	if unionBoundFailure(100, 0.5) != 1 {
		t.Fatal("overwhelming count should clamp at 1")
	}
	got := unionBoundFailure(math.Log(10), 1e-6)
	if math.Abs(got-1e-5) > 1e-12 {
		t.Fatalf("got %v, want 1e-5", got)
	}
}

func TestMultinomialCovarianceNonpositive(t *testing.T) {
	// Negative association of multinomial counts: counts on disjoint cell
	// sets are negatively correlated. With enough trials the estimate must
	// be <= small positive noise.
	rng := rand.New(rand.NewPCG(2, 2))
	cov, err := multinomialCovariance(8, 16, 20000, []int{0, 1}, []int{2, 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if cov > 0.05 {
		t.Fatalf("covariance %v should be nonpositive (negative association)", cov)
	}
	if cov < -4 {
		t.Fatalf("covariance %v implausibly negative", cov)
	}
}

func TestMultinomialCovarianceValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	if _, err := multinomialCovariance(1, 4, 10, nil, nil, rng); err == nil {
		t.Fatal("cells<2 should error")
	}
	if _, err := multinomialCovariance(4, 4, 10, []int{0}, []int{0}, rng); err == nil {
		t.Fatal("overlapping subsets should error")
	}
	if _, err := multinomialCovariance(4, 4, 10, []int{9}, nil, rng); err == nil {
		t.Fatal("out-of-range cell should error")
	}
}

func TestEmpiricalTail(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if empiricalTail(xs, 3) != 0.5 {
		t.Fatalf("tail=%v", empiricalTail(xs, 3))
	}
	if empiricalTail(nil, 1) != 0 {
		t.Fatal("empty tail should be 0")
	}
}
