// Package schedule simulates store-and-forward packet delivery along fixed
// paths, measuring the makespan (completion time) the Section 7 objective
// abstracts as congestion + dilation.
//
// The classical result the paper invokes [23] guarantees a schedule of
// length O(C + D) where C is the maximum edge congestion and D the maximum
// path length; the simulator here implements the standard practical variant:
// every packet starts after a random initial delay and then moves greedily,
// with each edge transmitting up to its capacity per time step (fifo, ties
// by packet ID). The measured makespan is reported next to the C + D bound.
package schedule

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"sparseroute/internal/flow"
	"sparseroute/internal/graph"
)

// policy selects which waiting packet an edge serves first when contended.
type policy int

const (
	// farthestFirst serves the packet furthest along its path (default):
	// it empties the network fastest in practice.
	farthestFirst policy = iota
	// longestRemaining serves the packet with the most hops still to go —
	// the priority rule behind O(C+D) schedule constructions (long jobs
	// first).
	longestRemaining
	// fifo serves packets in packet-ID order (arrival order proxy).
	fifo
)

// Result reports one simulation.
type Result struct {
	// Makespan is the time step at which the last packet arrived.
	Makespan int
	// Congestion is the maximum edge congestion C of the packet set
	// (integral load over capacity).
	Congestion float64
	// Dilation is the maximum path length D.
	Dilation int
	// Packets is the number of packets simulated.
	Packets int
}

// LowerBound returns the trivial makespan lower bound max(ceil(C), D).
func (r *Result) LowerBound() int {
	lb := r.Dilation
	if c := int(math.Ceil(r.Congestion - 1e-9)); c > lb {
		lb = c
	}
	return lb
}

// packet is one unit of flow walking its path.
type packet struct {
	id    int
	path  graph.Path
	pos   int // next edge index to traverse
	delay int // remaining initial delay
	done  bool
}

// simulate runs the store-and-forward schedule for an integral routing with
// the default farthestFirst policy. maxDelay is the bound on random initial
// delays (0 disables them; a value around C/2 is the classical choice). The
// step limit guards against bugs; it errors if packets remain after
// 10·(C+D+maxDelay)+100 steps.
func simulate(g *graph.Graph, r flow.Routing, maxDelay int, rng *rand.Rand) (*Result, error) {
	return simulateWithPolicy(g, r, maxDelay, farthestFirst, rng)
}

// simulateWithPolicy is simulate with an explicit contention policy.
func simulateWithPolicy(g *graph.Graph, r flow.Routing, maxDelay int, policy policy, rng *rand.Rand) (*Result, error) {
	if !r.IsIntegral(1e-9) {
		return nil, fmt.Errorf("schedule: routing must be integral")
	}
	var packets []*packet
	dilation := 0
	// Packets are numbered, and draw their delays, in sorted pair order: the
	// numbering breaks contention ties, so a map-order walk would make the
	// makespan depend on more than the seed.
	for _, pair := range r.SortedPairs() {
		for _, wp := range r[pair] {
			count := int(wp.Weight + 0.5)
			for c := 0; c < count; c++ {
				d := 0
				if maxDelay > 0 {
					d = rng.IntN(maxDelay + 1)
				}
				packets = append(packets, &packet{id: len(packets), path: wp.Path, delay: d})
			}
			if wp.Path.Hops() > dilation {
				dilation = wp.Path.Hops()
			}
		}
	}
	res := &Result{
		Congestion: r.MaxCongestion(g),
		Dilation:   dilation,
		Packets:    len(packets),
	}
	if len(packets) == 0 {
		return res, nil
	}
	remaining := 0
	for _, p := range packets {
		if p.path.Hops() == 0 {
			p.done = true
		} else {
			remaining++
		}
	}
	limit := 10*(int(math.Ceil(res.Congestion))+dilation+maxDelay) + 100
	// wantEdge[e] collects packets requesting edge e this step.
	wantEdge := make([][]*packet, g.NumEdges())
	for step := 1; remaining > 0; step++ {
		if step > limit {
			return nil, fmt.Errorf("schedule: exceeded step limit %d with %d packets left", limit, remaining)
		}
		for e := range wantEdge {
			wantEdge[e] = wantEdge[e][:0]
		}
		for _, p := range packets {
			if p.done {
				continue
			}
			if p.delay > 0 {
				p.delay--
				continue
			}
			e := p.path.EdgeIDs[p.pos]
			wantEdge[e] = append(wantEdge[e], p)
		}
		for e, ps := range wantEdge {
			if len(ps) == 0 {
				continue
			}
			capacity := int(g.Edge(e).Capacity)
			if capacity < 1 {
				capacity = 1
			}
			// Contention order per the chosen policy, ties by ID for
			// determinism.
			sort.Slice(ps, func(i, j int) bool {
				switch policy {
				case longestRemaining:
					ri := ps[i].path.Hops() - ps[i].pos
					rj := ps[j].path.Hops() - ps[j].pos
					if ri != rj {
						return ri > rj
					}
				case fifo:
					// fall through to the ID tie-break
				default: // farthestFirst
					if ps[i].pos != ps[j].pos {
						return ps[i].pos > ps[j].pos
					}
				}
				return ps[i].id < ps[j].id
			})
			for i := 0; i < len(ps) && i < capacity; i++ {
				p := ps[i]
				p.pos++
				if p.pos == p.path.Hops() {
					p.done = true
					remaining--
					if step > res.Makespan {
						res.Makespan = step
					}
				}
			}
		}
	}
	return res, nil
}

// SimulateBest runs the simulation with several independent random delay
// draws and returns the best (smallest-makespan) result — mirroring the
// probabilistic existence argument behind O(C+D) scheduling.
func SimulateBest(g *graph.Graph, r flow.Routing, maxDelay, trials int, rng *rand.Rand) (*Result, error) {
	if trials < 1 {
		trials = 1
	}
	var best *Result
	for i := 0; i < trials; i++ {
		res, err := simulate(g, r, maxDelay, rng)
		if err != nil {
			return nil, err
		}
		if best == nil || res.Makespan < best.Makespan {
			best = res
		}
	}
	return best, nil
}
