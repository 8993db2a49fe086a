package demand

import (
	"math/rand/v2"

	"sparseroute/internal/graph"
)

// RandomPermutation returns a permutation demand pairing 2*pairs distinct
// vertices of an n-vertex graph uniformly at random. It panics when
// 2*pairs > n.
func RandomPermutation(n, pairs int, rng *rand.Rand) *Demand {
	if 2*pairs > n {
		panic("demand: not enough vertices for the requested permutation size")
	}
	perm := rng.Perm(n)
	d := New()
	for i := 0; i < pairs; i++ {
		d.Set(perm[2*i], perm[2*i+1], 1)
	}
	return d
}

// fullPermutation returns a perfect-matching permutation demand on all n
// vertices (n must be even).
func fullPermutation(n int, rng *rand.Rand) *Demand {
	if n%2 != 0 {
		panic("demand: fullPermutation needs even n")
	}
	return RandomPermutation(n, n/2, rng)
}

// Transpose returns the hypercube transpose permutation: vertex labels are
// 2d-bit strings and v = (hi, lo) is paired with (lo, hi). This is the
// classical worst case for deterministic greedy bit-fixing routing
// (congestion Ω(sqrt(N)) on one edge), used by experiment E3.
// dim must be even; vertices pairing with themselves (hi == lo) are skipped,
// as are duplicate mirrored pairs.
func Transpose(dim int) *Demand {
	if dim%2 != 0 {
		panic("demand: transpose needs an even hypercube dimension")
	}
	half := dim / 2
	mask := (1 << half) - 1
	d := New()
	n := 1 << dim
	for v := 0; v < n; v++ {
		hi := v >> half
		lo := v & mask
		w := lo<<half | hi
		if v < w {
			d.Set(v, w, 1)
		}
	}
	return d
}

// BitReversal returns the hypercube bit-reversal permutation demand:
// v is paired with its dim-bit reversal. Another classical adversarial
// permutation for oblivious deterministic routing.
func BitReversal(dim int) *Demand {
	d := New()
	n := 1 << dim
	for v := 0; v < n; v++ {
		w := 0
		for b := 0; b < dim; b++ {
			if v&(1<<b) != 0 {
				w |= 1 << (dim - 1 - b)
			}
		}
		if v < w {
			d.Set(v, w, 1)
		}
	}
	return d
}

// UniformPairs returns a demand with `count` uniformly random distinct pairs,
// each with the given amount. Pairs may share endpoints (this is a general
// demand, not a permutation).
func UniformPairs(n, count int, amount float64, rng *rand.Rand) *Demand {
	d := New()
	for len(d.m) < count {
		u := rng.IntN(n)
		v := rng.IntN(n)
		if u == v {
			continue
		}
		d.Set(u, v, amount)
	}
	return d
}

// Gravity returns a gravity-model demand on g: every vertex gets a mass
// proportional to its capacity degree, and pair (u,v) receives demand
// total * mass(u)*mass(v) / Σ masses², restricted to the `pairs` heaviest
// pairs to keep supports small. This is the standard traffic-engineering
// demand model used in the SMORE evaluation.
func Gravity(g *graph.Graph, total float64, pairs int, rng *rand.Rand) *Demand {
	n := g.NumVertices()
	mass := make([]float64, n)
	var sum float64
	for v := 0; v < n; v++ {
		mass[v] = g.CapacityDegree(v) * (0.5 + rng.Float64())
		sum += mass[v]
	}
	var entries []weightedPair
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			entries = append(entries, weightedPair{p: Pair{U: u, V: v}, w: mass[u] * mass[v]})
		}
	}
	// Partial selection of the heaviest `pairs` entries.
	if pairs < len(entries) {
		quickSelectTop(entries, pairs)
		entries = entries[:pairs]
	}
	var wsum float64
	for _, e := range entries {
		wsum += e.w
	}
	d := New()
	for _, e := range entries {
		d.m[e.p] = total * e.w / wsum
	}
	return d
}

type weightedPair struct {
	p Pair
	w float64
}

// quickSelectTop partially sorts entries so the k largest (by w) occupy the
// prefix, in O(n) expected time.
func quickSelectTop(entries []weightedPair, k int) {
	lo, hi := 0, len(entries)
	for hi-lo > 1 {
		pivot := entries[(lo+hi)/2].w
		i, j := lo, hi-1
		for i <= j {
			for entries[i].w > pivot {
				i++
			}
			for entries[j].w < pivot {
				j--
			}
			if i <= j {
				entries[i], entries[j] = entries[j], entries[i]
				i++
				j--
			}
		}
		switch {
		case k <= j+1:
			hi = j + 1
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// SinglePair returns the demand with one unit between u and v.
func SinglePair(u, v int, amount float64) *Demand {
	d := New()
	d.Set(u, v, amount)
	return d
}

// special builds a θ-special demand (Definition 5.5) over the given pairs:
// each pair p gets demand θ * numPaths(p).
func special(pairs []Pair, theta float64, numPaths func(Pair) int) *Demand {
	d := New()
	for _, p := range pairs {
		d.m[p] = theta * float64(numPaths(p))
	}
	return d
}
