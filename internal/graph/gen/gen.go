// Package gen constructs the benchmark topologies used throughout the
// evaluation: classical interconnection networks (hypercube, grid, torus,
// fat-tree), random expanders, synthetic wide-area networks, and the
// adversarial families from the paper (two cliques joined by k bridges from
// Section 2.1, the double-star lower-bound family B_{k,p} from Section 8).
package gen

import (
	"fmt"
	"math/rand/v2"

	"sparseroute/internal/graph"
)

// Hypercube returns the d-dimensional hypercube on n = 2^d vertices with unit
// capacities. Vertex labels are the bit strings; edge (v, v^ (1<<i)) differs
// in bit i.
func Hypercube(d int) *graph.Graph {
	if d < 1 || d > 20 {
		panic(fmt.Sprintf("gen: hypercube dimension %d out of range [1,20]", d))
	}
	n := 1 << d
	g := graph.New(n)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			w := v ^ (1 << i)
			if v < w {
				g.AddUnitEdge(v, w)
			}
		}
	}
	return g
}

// Grid returns the rows x cols grid with unit capacities. Vertex (r,c) is
// labelled r*cols + c.
func Grid(rows, cols int) *graph.Graph {
	if rows < 1 || cols < 1 {
		panic("gen: grid dimensions must be positive")
	}
	g := graph.New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddUnitEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				g.AddUnitEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return g
}

// Torus returns the rows x cols torus (grid with wraparound), unit capacities.
// Requires rows, cols >= 3 so that wrap edges are not parallel to grid edges.
func Torus(rows, cols int) *graph.Graph {
	if rows < 3 || cols < 3 {
		panic("gen: torus dimensions must be >= 3")
	}
	g := Grid(rows, cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		g.AddUnitEdge(id(r, cols-1), id(r, 0))
	}
	for c := 0; c < cols; c++ {
		g.AddUnitEdge(id(rows-1, c), id(0, c))
	}
	return g
}

// Ring returns the n-cycle with unit capacities (n >= 3).
func Ring(n int) *graph.Graph {
	if n < 3 {
		panic("gen: ring needs n >= 3")
	}
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.AddUnitEdge(v, (v+1)%n)
	}
	return g
}

// Complete returns the complete graph K_n with unit capacities.
func Complete(n int) *graph.Graph {
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddUnitEdge(u, v)
		}
	}
	return g
}

// RandomRegular returns a random deg-regular simple graph on n vertices via
// the configuration model with edge-swap repair: the random stub pairing is
// fixed up by swapping endpoints of offending pairs (self-loops, parallels)
// with random other pairs, which preserves degrees. n*deg must be even.
// The result is an expander with high probability for deg >= 3; the
// generator retries until connected.
func RandomRegular(n, deg int, rng *rand.Rand) *graph.Graph {
	if n*deg%2 != 0 {
		panic("gen: n*deg must be even for a regular graph")
	}
	if deg >= n {
		panic("gen: degree must be < n")
	}
	for attempt := 0; attempt < 200; attempt++ {
		g, ok := tryRegular(n, deg, rng)
		if ok && g.Connected() {
			return g
		}
	}
	panic("gen: failed to generate a connected random regular graph (degree too low?)")
}

func tryRegular(n, deg int, rng *rand.Rand) (*graph.Graph, bool) {
	stubs := make([]int, 0, n*deg)
	for v := 0; v < n; v++ {
		for i := 0; i < deg; i++ {
			stubs = append(stubs, v)
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	// pairs[i] = (stubs[2i], stubs[2i+1]); repair bad pairs by swapping one
	// endpoint with a random other pair (degree-preserving).
	numPairs := len(stubs) / 2
	key := func(u, v int) [2]int {
		if u > v {
			u, v = v, u
		}
		return [2]int{u, v}
	}
	count := make(map[[2]int]int, numPairs)
	for i := 0; i < numPairs; i++ {
		count[key(stubs[2*i], stubs[2*i+1])]++
	}
	isBad := func(i int) bool {
		u, v := stubs[2*i], stubs[2*i+1]
		return u == v || count[key(u, v)] > 1
	}
	maxRepairs := 100 * numPairs
	for repair := 0; ; repair++ {
		bad := -1
		for i := 0; i < numPairs; i++ {
			if isBad(i) {
				bad = i
				break
			}
		}
		if bad < 0 {
			break
		}
		if repair >= maxRepairs {
			return nil, false
		}
		j := rng.IntN(numPairs)
		if j == bad {
			continue
		}
		// Swap the second endpoint of `bad` with a random endpoint of j.
		side := rng.IntN(2)
		count[key(stubs[2*bad], stubs[2*bad+1])]--
		count[key(stubs[2*j], stubs[2*j+1])]--
		stubs[2*bad+1], stubs[2*j+side] = stubs[2*j+side], stubs[2*bad+1]
		count[key(stubs[2*bad], stubs[2*bad+1])]++
		count[key(stubs[2*j], stubs[2*j+1])]++
	}
	g := graph.New(n)
	for i := 0; i < numPairs; i++ {
		g.AddUnitEdge(stubs[2*i], stubs[2*i+1])
	}
	return g, true
}

// ErdosRenyi returns G(n, p) with unit capacities, retrying until connected
// (up to a bound). Intended for p comfortably above the connectivity
// threshold.
func ErdosRenyi(n int, p float64, rng *rand.Rand) *graph.Graph {
	for attempt := 0; attempt < 200; attempt++ {
		g := graph.New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < p {
					g.AddUnitEdge(u, v)
				}
			}
		}
		if g.Connected() {
			return g
		}
	}
	panic("gen: failed to generate a connected G(n,p); increase p")
}

// TwoCliques returns two k-cliques of size cliqueSize joined by `bridges`
// unit edges between distinct endpoint pairs. This is the Section 2.1
// example showing why R-sparsity (rather than (R+lambda)-sparsity) fails for
// non-unit demands. Vertices 0..cliqueSize-1 form the left clique,
// cliqueSize..2*cliqueSize-1 the right one; bridge i joins vertex i on the
// left to vertex cliqueSize+i on the right.
func TwoCliques(cliqueSize, bridges int) *graph.Graph {
	if bridges > cliqueSize {
		panic("gen: more bridges than clique vertices")
	}
	if cliqueSize < 2 {
		panic("gen: clique size must be >= 2")
	}
	g := graph.New(2 * cliqueSize)
	for side := 0; side < 2; side++ {
		off := side * cliqueSize
		for u := 0; u < cliqueSize; u++ {
			for v := u + 1; v < cliqueSize; v++ {
				g.AddUnitEdge(off+u, off+v)
			}
		}
	}
	for i := 0; i < bridges; i++ {
		g.AddUnitEdge(i, cliqueSize+i)
	}
	return g
}

// DoubleStar describes the lower-bound gadget B_{k,p} of Lemma 8.1: two
// p-leaf stars whose centers are joined through k middle vertices, each
// adjacent to both centers.
type DoubleStar struct {
	G           *graph.Graph
	LeftCenter  int
	RightCenter int
	LeftLeaves  []int // p vertices
	RightLeaves []int // p vertices
	Middle      []int // k vertices
}

// NewDoubleStar builds B_{k,p}. Vertex layout: 0 = left center, 1 = right
// center, 2..k+1 = middle, then p left leaves, then p right leaves.
func NewDoubleStar(k, p int) DoubleStar {
	if k < 1 || p < 1 {
		panic("gen: B_{k,p} needs k,p >= 1")
	}
	n := 2 + k + 2*p
	g := graph.New(n)
	ds := DoubleStar{G: g, LeftCenter: 0, RightCenter: 1}
	for i := 0; i < k; i++ {
		mid := 2 + i
		ds.Middle = append(ds.Middle, mid)
		g.AddUnitEdge(ds.LeftCenter, mid)
		g.AddUnitEdge(mid, ds.RightCenter)
	}
	for i := 0; i < p; i++ {
		leaf := 2 + k + i
		ds.LeftLeaves = append(ds.LeftLeaves, leaf)
		g.AddUnitEdge(ds.LeftCenter, leaf)
	}
	for i := 0; i < p; i++ {
		leaf := 2 + k + p + i
		ds.RightLeaves = append(ds.RightLeaves, leaf)
		g.AddUnitEdge(ds.RightCenter, leaf)
	}
	return ds
}

// GluedLowerBound builds the Lemma 8.2 family: one copy of B_{k,p} for every
// k in [1, maxK], connected in a chain by single bridge edges between
// consecutive copies' right/left centers. It returns the graph and the
// per-copy gadget descriptions (with vertex IDs offset into the glued graph).
func GluedLowerBound(maxK, p int) (*graph.Graph, []DoubleStar) {
	if maxK < 1 {
		panic("gen: maxK must be >= 1")
	}
	total := 0
	sizes := make([]int, maxK+1)
	for k := 1; k <= maxK; k++ {
		sizes[k] = 2 + k + 2*p
		total += sizes[k]
	}
	g := graph.New(total)
	var gadgets []DoubleStar
	offset := 0
	prevRightCenter := -1
	for k := 1; k <= maxK; k++ {
		base := NewDoubleStar(k, p)
		ds := DoubleStar{
			G:           g,
			LeftCenter:  offset + base.LeftCenter,
			RightCenter: offset + base.RightCenter,
		}
		for _, v := range base.Middle {
			ds.Middle = append(ds.Middle, offset+v)
		}
		for _, v := range base.LeftLeaves {
			ds.LeftLeaves = append(ds.LeftLeaves, offset+v)
		}
		for _, v := range base.RightLeaves {
			ds.RightLeaves = append(ds.RightLeaves, offset+v)
		}
		for _, e := range base.G.Edges() {
			g.AddEdge(offset+e.U, offset+e.V, e.Capacity)
		}
		if prevRightCenter >= 0 {
			g.AddUnitEdge(prevRightCenter, ds.LeftCenter)
		}
		prevRightCenter = ds.RightCenter
		gadgets = append(gadgets, ds)
		offset += sizes[k]
	}
	return g, gadgets
}

// FatTree returns a three-level k-ary fat-tree-like topology (k even):
// k pods of k/2 edge and k/2 aggregation switches, (k/2)^2 core switches,
// with capacities increasing toward the core (edge links capacity 1,
// aggregation-core links capacity 1). Hosts are not modelled; routing happens
// between edge switches. Returns the graph and the list of edge-switch IDs.
func FatTree(k int) (*graph.Graph, []int) {
	if k < 2 || k%2 != 0 {
		panic("gen: fat-tree arity must be even and >= 2")
	}
	half := k / 2
	numEdge := k * half
	numAgg := k * half
	numCore := half * half
	g := graph.New(numEdge + numAgg + numCore)
	edgeID := func(pod, i int) int { return pod*half + i }
	aggID := func(pod, i int) int { return numEdge + pod*half + i }
	coreID := func(i, j int) int { return numEdge + numAgg + i*half + j }
	var edgeSwitches []int
	for pod := 0; pod < k; pod++ {
		for e := 0; e < half; e++ {
			edgeSwitches = append(edgeSwitches, edgeID(pod, e))
			for a := 0; a < half; a++ {
				g.AddUnitEdge(edgeID(pod, e), aggID(pod, a))
			}
		}
		for a := 0; a < half; a++ {
			for c := 0; c < half; c++ {
				g.AddUnitEdge(aggID(pod, a), coreID(a, c))
			}
		}
	}
	return g, edgeSwitches
}

// SyntheticWAN returns a wide-area-network-like topology: `n` points placed
// uniformly in the unit square, connected by a random spanning tree plus
// `extra` shortcut edges biased toward nearby pairs, with heterogeneous
// capacities in {1, 4, 10} favouring long edges. This stands in for the
// proprietary ISP topologies used by the SMORE evaluation; it exercises the
// same code path (irregular degrees, heterogeneous capacities).
func SyntheticWAN(n, extra int, rng *rand.Rand) *graph.Graph {
	if n < 2 {
		panic("gen: WAN needs n >= 2")
	}
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	dist := func(a, b int) float64 {
		dx, dy := xs[a]-xs[b], ys[a]-ys[b]
		return dx*dx + dy*dy
	}
	g := graph.New(n)
	seen := make(map[[2]int]bool)
	addEdge := func(u, v int) bool {
		if u == v {
			return false
		}
		a, b := u, v
		if a > b {
			a, b = b, a
		}
		if seen[[2]int{a, b}] {
			return false
		}
		seen[[2]int{a, b}] = true
		c := 1.0
		switch {
		case dist(u, v) > 0.25:
			c = 10
		case dist(u, v) > 0.08:
			c = 4
		}
		g.AddEdge(u, v, c)
		return true
	}
	// Random spanning tree: connect each vertex i >= 1 to its nearest
	// already-placed vertex with probability 0.7, else a random one.
	for i := 1; i < n; i++ {
		target := 0
		if rng.Float64() < 0.7 {
			best := 0
			for j := 1; j < i; j++ {
				if dist(i, j) < dist(i, best) {
					best = j
				}
			}
			target = best
		} else {
			target = rng.IntN(i)
		}
		addEdge(i, target)
	}
	for added := 0; added < extra; {
		u := rng.IntN(n)
		v := rng.IntN(n)
		if u == v {
			continue
		}
		// Bias toward near pairs: accept with probability decaying in
		// distance, but always eventually terminate.
		if rng.Float64() < 1.0/(1.0+20*dist(u, v)) {
			if addEdge(u, v) {
				added++
			}
		} else if rng.Float64() < 0.02 { // occasional long-haul link
			if addEdge(u, v) {
				added++
			}
		}
	}
	return g
}
