// Package prob implements the probabilistic machinery of the paper's
// analysis (Appendix B and Lemma 5.13): Chernoff tail bounds for negatively
// associated 0/1 variables, the combinatorial bound on the number of bad
// patterns, and Monte-Carlo estimators used by the tests to demonstrate the
// negative association of the sampling indicator variables.
//
// These functions do not influence the routing algorithms; they quantify the
// failure probabilities the experiments (E7/E10) measure, so predicted and
// empirical concentration can be printed side by side.
package prob

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// chernoffUpperTail bounds P[X >= (1+delta)·mu] for a sum X of independent
// (or negatively associated, Lemma B.5) 0/1 variables with mean mu:
// exp(-mu·((1+delta)·ln(1+delta) - delta)), valid for all delta > 0.
func chernoffUpperTail(mu, delta float64) float64 {
	if mu <= 0 || delta <= 0 {
		return 1
	}
	exponent := mu * ((1+delta)*math.Log1p(delta) - delta)
	return math.Exp(-exponent)
}

// ChernoffAtLeast bounds P[X >= t] for mean mu and threshold t > mu.
func ChernoffAtLeast(mu, t float64) float64 {
	if t <= mu {
		return 1
	}
	return chernoffUpperTail(mu, t/mu-1)
}

// chernoffLowerTail bounds P[X <= (1-delta)·mu], 0 < delta < 1 (Lemma B.6):
// exp(-mu·delta²/2).
func chernoffLowerTail(mu, delta float64) float64 {
	if mu <= 0 || delta <= 0 {
		return 1
	}
	if delta >= 1 {
		delta = 1
	}
	return math.Exp(-mu * delta * delta / 2)
}

// LogBadPatternCount upper-bounds (in natural log) the number of bad
// patterns of Definition 5.11: m-tuples of nonnegative integers summing to
// at least S with every nonzero entry at least q. With at most k = S/q
// nonzero coordinates, the count is bounded by
//
//	Σ_{j<=k} C(m, j) · C(S + j, j)   <=   k · (e·m/k)^k · (e·(S+k)/k)^k,
//
// whose logarithm this returns. Used to check that the union bound of
// Lemma 5.13 is dominated by the per-pattern failure probability.
func LogBadPatternCount(m int, total, minEntry float64) (float64, error) {
	if m <= 0 || total <= 0 || minEntry <= 0 {
		return 0, fmt.Errorf("prob: need positive m, total, minEntry")
	}
	k := math.Ceil(total / minEntry)
	if k < 1 {
		k = 1
	}
	logC := func(n, j float64) float64 { // log C(n, j) <= j·log(e·n/j)
		if j <= 0 {
			return 0
		}
		return j * math.Log(math.E*n/j)
	}
	return math.Log(k) + logC(float64(m), k) + logC(total+k, k), nil
}

// unionBoundFailure multiplies a per-event failure bound by the (log-domain)
// event count, returning min(1, count·p) computed stably in logs.
func unionBoundFailure(logCount, perEvent float64) float64 {
	if perEvent <= 0 {
		return 0
	}
	logTotal := logCount + math.Log(perEvent)
	if logTotal >= 0 {
		return 1
	}
	return math.Exp(logTotal)
}

// multinomialCovariance Monte-Carlo-estimates Cov(f, g) where f and g are
// monotone functions of DISJOINT index subsets of multinomial indicator
// counts: trials of `draws` samples over `cells` equally likely cells;
// f = count in cellsF, g = count in cellsG. Negative association
// (Lemmas B.2/B.3) predicts a nonpositive covariance; the tests verify this
// empirically for the path-sampling variables of Section 5.3.
func multinomialCovariance(cells, draws, trials int, cellsF, cellsG []int, rng *rand.Rand) (float64, error) {
	if cells < 2 || draws < 1 || trials < 2 {
		return 0, fmt.Errorf("prob: need cells>=2, draws>=1, trials>=2")
	}
	inF := make([]bool, cells)
	inG := make([]bool, cells)
	for _, c := range cellsF {
		if c < 0 || c >= cells {
			return 0, fmt.Errorf("prob: cell %d out of range", c)
		}
		inF[c] = true
	}
	for _, c := range cellsG {
		if c < 0 || c >= cells {
			return 0, fmt.Errorf("prob: cell %d out of range", c)
		}
		if inF[c] {
			return 0, fmt.Errorf("prob: cell %d appears in both subsets", c)
		}
		inG[c] = true
	}
	var sumF, sumG, sumFG float64
	for t := 0; t < trials; t++ {
		var f, g float64
		for d := 0; d < draws; d++ {
			c := rng.IntN(cells)
			if inF[c] {
				f++
			} else if inG[c] {
				g++
			}
		}
		sumF += f
		sumG += g
		sumFG += f * g
	}
	n := float64(trials)
	return sumFG/n - (sumF/n)*(sumG/n), nil
}

// empiricalTail returns the fraction of samples >= t.
func empiricalTail(samples []float64, t float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	count := 0
	for _, s := range samples {
		if s >= t {
			count++
		}
	}
	return float64(count) / float64(len(samples))
}
