// Package sparseroute is a Go implementation of sparse semi-oblivious
// routing: the "few random paths suffice" construction that fixes a handful
// of candidate paths per vertex pair — sampled from a competitive oblivious
// routing before any traffic is known — and then optimizes only the sending
// rates once the demand is revealed.
//
// The package is the public facade over the internal subsystems:
//
//   - graphs and topology generators (hypercube, grid, torus, expanders,
//     fat-trees, synthetic WANs, the paper's lower-bound gadgets);
//   - oblivious routings to sample from (Räcke-style FRT-tree mixtures,
//     Valiant's hypercube trick, hop-constrained routings, and SPF/KSP
//     baselines);
//   - the sampling constructions (R-sample, (R+λ)-sample, hop-scale union);
//   - the adaptation step (exact LP or multiplicative-weights), fractional
//     and integral (randomized rounding + local search), cancelable through
//     a context (PathSystem.AdaptCtx and friends);
//   - evaluation against the offline optimum, packet-level makespan
//     simulation, and a traffic-engineering scenario runner.
//
// The online serving engine (resident path system, per-epoch rate
// adaptation, topology events with recovery resampling and degraded-mode
// health) is the cmd/routed daemon over internal/service, not part of this
// facade.
//
// # Quick start
//
//	g := sparseroute.Hypercube(6)
//	router, _ := sparseroute.NewValiantRouter(g, 6)
//	demand := sparseroute.RandomPermutationDemand(g.NumVertices(), 16, 1)
//	system, _ := sparseroute.Sample(router, demand.Support(), 4, 1)
//	routing, _ := system.Adapt(demand, nil)
//	fmt.Println("congestion:", routing.MaxCongestion(g))
//
// See examples/ for runnable programs and DESIGN.md for the system
// inventory and the experiment index.
package sparseroute

import (
	"context"
	"math/rand/v2"

	"sparseroute/internal/adversary"
	"sparseroute/internal/core"
	"sparseroute/internal/demand"
	"sparseroute/internal/flow"
	"sparseroute/internal/graph"
	"sparseroute/internal/graph/gen"
	"sparseroute/internal/maxflow"
	"sparseroute/internal/mcf"
	"sparseroute/internal/oblivious"
	"sparseroute/internal/schedule"
	"sparseroute/internal/temodel"
)

// Core types, re-exported. The methods documented on the internal types are
// part of the public API surface.
type (
	// Graph is an undirected capacitated multigraph.
	Graph = graph.Graph
	// Path is a routing path identified by its edge sequence.
	Path = graph.Path
	// Pair is an unordered vertex pair.
	Pair = demand.Pair
	// Demand is a demand matrix (Definition 2.2 of the paper).
	Demand = demand.Demand
	// Routing assigns weighted paths to demand pairs.
	Routing = flow.Routing
	// WeightedPath is a path carrying flow.
	WeightedPath = flow.WeightedPath
	// PathSystem is a semi-oblivious routing: candidate paths per pair
	// (Definition 2.1).
	PathSystem = core.PathSystem
	// AdaptOptions tunes the rate-adaptation (Stage 4) solvers.
	AdaptOptions = core.AdaptOptions
	// CompletionResult reports completion-time adaptation.
	CompletionResult = core.CompletionResult
	// Report compares semi-oblivious congestion to OPT and the base
	// oblivious routing.
	Report = core.Report
	// EvalOptions controls Evaluate.
	EvalOptions = core.EvalOptions
	// Router is an oblivious routing: a fixed distribution over paths per
	// vertex pair, independent of demands.
	Router = oblivious.Router
	// ScheduleResult reports a store-and-forward packet simulation.
	ScheduleResult = schedule.Result
	// TEMethod is one routing method in the traffic-engineering runner.
	TEMethod = temodel.Method
)

// --- Topologies -----------------------------------------------------------

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) *Graph { return graph.New(n) }

// Hypercube returns the d-dimensional hypercube.
func Hypercube(d int) *Graph { return gen.Hypercube(d) }

// Grid returns the rows x cols grid.
func Grid(rows, cols int) *Graph { return gen.Grid(rows, cols) }

// Torus returns the rows x cols torus.
func Torus(rows, cols int) *Graph { return gen.Torus(rows, cols) }

// Expander returns a random deg-regular graph (an expander w.h.p.).
func Expander(n, deg int, seed uint64) *Graph {
	return gen.RandomRegular(n, deg, rand.New(rand.NewPCG(seed, 0xe)))
}

// FatTree returns a k-ary fat-tree and its edge-switch vertex IDs.
func FatTree(k int) (*Graph, []int) { return gen.FatTree(k) }

// SyntheticWAN returns a heterogeneous wide-area-network-like topology.
func SyntheticWAN(n, extraEdges int, seed uint64) *Graph {
	return gen.SyntheticWAN(n, extraEdges, rand.New(rand.NewPCG(seed, 0x17)))
}

// --- Demands ---------------------------------------------------------------

// NewDemand returns an empty demand matrix.
func NewDemand() *Demand { return demand.New() }

// RandomPermutationDemand pairs 2*pairs distinct vertices at random.
func RandomPermutationDemand(n, pairs int, seed uint64) *Demand {
	return demand.RandomPermutation(n, pairs, rand.New(rand.NewPCG(seed, 0xd)))
}

// TransposeDemand is the hypercube transpose permutation (dim even).
func TransposeDemand(dim int) *Demand { return demand.Transpose(dim) }

// BitReversalDemand is the hypercube bit-reversal permutation.
func BitReversalDemand(dim int) *Demand { return demand.BitReversal(dim) }

// GravityDemand is a gravity-model traffic matrix over the heaviest pairs.
func GravityDemand(g *Graph, total float64, pairs int, seed uint64) *Demand {
	return demand.Gravity(g, total, pairs, rand.New(rand.NewPCG(seed, 0x9)))
}

// AllPairs enumerates every unordered vertex pair of an n-vertex graph.
func AllPairs(n int) []Pair { return core.AllPairs(n) }

// --- Oblivious routings ------------------------------------------------ ---

// NewRaeckeRouter builds the Räcke-style oblivious routing: a congestion-
// adaptive mixture of `trees` FRT decomposition trees.
func NewRaeckeRouter(g *Graph, trees int, seed uint64) (Router, error) {
	return oblivious.NewRaecke(g, &oblivious.RaeckeOptions{NumTrees: trees},
		rand.New(rand.NewPCG(seed, 0xa)))
}

// NewValiantRouter builds Valiant's randomized hypercube routing.
func NewValiantRouter(g *Graph, dim int) (Router, error) {
	return oblivious.NewValiant(g, dim)
}

// NewSPFRouter builds deterministic shortest-path-first routing.
func NewSPFRouter(g *Graph) Router { return oblivious.NewSPF(g) }

// NewKSPRouter builds k-shortest-paths (ECMP-style) routing.
func NewKSPRouter(g *Graph, k int) Router { return oblivious.NewKSP(g, k, nil) }

// NewHopConstrainedRouter builds the hop-budgeted oblivious routing used by
// the completion-time construction.
func NewHopConstrainedRouter(g *Graph, budget int) (Router, error) {
	return oblivious.NewHopConstrained(g, budget)
}

// ObliviousCongestion routes d fractionally through r and returns the
// maximum relative edge congestion.
func ObliviousCongestion(r Router, d *Demand) (float64, error) {
	return oblivious.Congestion(r, d)
}

// --- The paper's construction ----------------------------------------------

// Sample draws R paths per pair from the oblivious routing (the R-sample of
// Definition 5.2). Fix the seed to reproduce a system.
func Sample(r Router, pairs []Pair, R int, seed uint64) (*PathSystem, error) {
	return core.RSample(r, pairs, R, seed)
}

// SampleWithCuts draws R + λ(u,v) paths per pair (λ = min cut), required for
// competitiveness on arbitrary non-unit demands (Lemma 2.7). maxLambda caps
// λ; 0 means uncapped.
func SampleWithCuts(r Router, pairs []Pair, R, maxLambda int, seed uint64) (*PathSystem, error) {
	return core.RPlusLambdaSample(r, pairs, R, maxLambda, seed)
}

// SampleForCompletionTime builds the hop-scale union system of Lemma 2.8,
// enabling completion-time-competitive adaptation.
func SampleForCompletionTime(g *Graph, pairs []Pair, R int, seed uint64) (*PathSystem, error) {
	return core.CompletionTimeSample(g, pairs, R, seed)
}

// SampleForCompletionTimeWithCuts combines the hop-scale union with
// cut-proportional sparsity (R + λ(u,v) per scale), for non-unit demands.
func SampleForCompletionTimeWithCuts(g *Graph, pairs []Pair, R, maxLambda int, seed uint64) (*PathSystem, error) {
	return core.CompletionTimeSampleWithCuts(g, pairs, R, maxLambda, seed)
}

// NewPathSystem returns an empty path system for hand-built candidates.
func NewPathSystem(g *Graph) *PathSystem { return core.NewPathSystem(g) }

// --- Evaluation --------------------------------------------------------- --

// Evaluate measures ps's competitive ratio on d against the (approximate)
// offline optimum and, when base is non-nil, against the base oblivious
// routing.
func Evaluate(ps *PathSystem, base Router, d *Demand, opt *EvalOptions) (*Report, error) {
	return core.Evaluate(ps, base, d, opt)
}

// OptimalCongestion approximates the offline optimal congestion OPT(d) with
// the multiplicative-weights solver (iterations 0 uses the default).
func OptimalCongestion(g *Graph, d *Demand, iterations int) (float64, error) {
	r, err := mcf.ApproxOptCongestionCtx(context.Background(), g, d, &mcf.Options{Iterations: iterations})
	if err != nil {
		return 0, err
	}
	return r.MaxCongestion(g), nil
}

// OptimalCongestionInterval returns a certified interval [lower, upper]
// provably containing OPT(d): the upper end is an achieved routing's
// congestion, the lower end an LP-duality certificate.
func OptimalCongestionInterval(g *Graph, d *Demand, iterations int) (lower, upper float64, err error) {
	cert, err := mcf.ApproxOptWithCertificate(g, d, &mcf.Options{Iterations: iterations})
	if err != nil {
		return 0, 0, err
	}
	return cert.Lower, cert.Upper, nil
}

// MinCut returns λ(u,v), the minimum u-v cut value.
func MinCut(g *Graph, u, v int) float64 { return maxflow.Lambda(g, u, v) }

// SimulatePackets runs the store-and-forward scheduler on an integral
// routing, returning makespan, congestion and dilation.
func SimulatePackets(g *Graph, r Routing, maxDelay, trials int, seed uint64) (*ScheduleResult, error) {
	return schedule.SimulateBest(g, r, maxDelay, trials, rand.New(rand.NewPCG(seed, 0x5)))
}

// IntegralAdapt rounds ps's fractional adaptation of the integral demand d
// to single paths per packet (Lemma 6.3 + local search).
func IntegralAdapt(ps *PathSystem, d *Demand, opt *AdaptOptions, seed uint64) (Routing, error) {
	return ps.AdaptIntegral(d, opt, rand.New(rand.NewPCG(seed, 0x6)))
}

// WorstDemandSearch hill-climbs for a permutation demand the system routes
// badly, returning the demand and its competitive ratio. The system must
// cover all pairs (sample over AllPairs). A bounded-budget adversary that
// fails to find bad demands is empirical evidence for the all-demands
// guarantee of the sampling theorem.
func WorstDemandSearch(ps *PathSystem, pairsPerDemand, steps, restarts int, seed uint64) (*Demand, float64, error) {
	res, err := adversary.Search(ps, &adversary.Options{
		Pairs:    pairsPerDemand,
		Steps:    steps,
		Restarts: restarts,
	}, rand.New(rand.NewPCG(seed, 0x7)))
	if err != nil {
		return nil, 0, err
	}
	return res.Demand, res.Ratio, nil
}
