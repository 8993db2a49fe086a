package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"sparseroute/internal/demand"
	"sparseroute/internal/graph"
	"sparseroute/internal/graph/gen"
	"sparseroute/internal/serial"
)

type opKind int

const (
	opSubmit  opKind = iota // POST /v1/demand?wait=1, a full matrix
	opPatch                 // PATCH /v1/demand?wait=1, per-pair deltas
	opFail                  // POST /v1/links {"fail":[e]}, timed to the re-optimised publish
	opRestore               // POST /v1/links {"restore":[e]}, likewise
)

// op is one timed mutation of a round's fixed op list: the request body the
// daemon is sent, and the same mutation as the in-process engine takes it.
type op struct {
	kind   opKind
	body   []byte
	demand *demand.Demand // opSubmit
	set    []patchEntry   // opPatch
	edge   int            // opFail, opRestore
	// gated ops feed epoch_p50_ms; every op feeds epochs_per_s. On
	// wan64-flap only the fail ops are gated: restores cost differently and
	// would make the median bimodal.
	gated bool
}

// plan is everything one round sends: the standing matrix posted (and
// snapshotted) before the timed phase, the timed op list, and the matrix the
// daemon must be serving once the list has run.
type plan struct {
	g     *graph.Graph
	base  *demand.Demand
	ops   []op
	final *demand.Demand
	// readPulls is how many back-to-back GET /v1/routing pulls make one
	// reader tick, chosen so a tick moves at least readPairs pair entries
	// and stays a millisecond-scale operation on a small table.
	readPulls int
}

// readPairs is the table size one reader tick must cover.
const readPairs = 300

// workload is one traffic mix. ops is the nominal op count per round at the
// reference run length; the plan is a pure function of (seed, round, ops).
type workload struct {
	name string
	// solver is the solver the service trace must name for the gated ops.
	solver string
	ops    int
	topo   func() *graph.Graph
	build  func(g *graph.Graph, seed uint64, round, ops int) *plan
}

// roundRNG is the generator of one round's traffic.
func roundRNG(seed uint64, round int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(round)+1))
}

// The network and the load standing on it are part of the workload
// definition, drawn from constant seeds: every -seed measures the same
// network carrying the same standing matrix under different traffic. (With
// the standing matrix seeded too, congestion_mean moved 2-7% from seed to
// seed on four matrices a run, which no quality bound survives.)
const (
	wanTopoSeed  = 64
	wanNodes     = 64
	wanExtra     = 40
	standingSeed = 600
	volume       = 60 // total demand of a standing or dense matrix
	sparseVolume = 20
)

// standing is the workload's standing matrix: a gravity matrix over the
// `pairs` heaviest pairs of g.
func standing(g *graph.Graph, pairs int) *demand.Demand {
	return demand.Gravity(g, volume, pairs, rand.New(rand.NewPCG(standingSeed, uint64(pairs))))
}

// gravities draws n independent gravity matrices of constant volume.
// (temodel.GravitySequence scales each matrix's volume by 0.5-1.5, which
// moves congestion_mean far more than it moves any timing.)
func gravities(g *graph.Graph, n int, total float64, pairs int, rng *rand.Rand) []*demand.Demand {
	out := make([]*demand.Demand, n)
	for i := range out {
		out[i] = demand.Gravity(g, total, pairs, rng)
	}
	return out
}

func gridTopo() *graph.Graph { return gen.Grid(10, 10) }

func wanTopo() *graph.Graph {
	return gen.SyntheticWAN(wanNodes, wanExtra, rand.New(rand.NewPCG(wanTopoSeed, wanTopoSeed)))
}

const (
	densePairs  = 600 // 2400 candidate variables: above the exact-LP threshold, MWU solves
	sparsePairs = 48  // about 160 candidate variables, under the 600 below which core.Adapt tries the exact simplex
	wanBase     = 300
	patchNudge  = 0.025
	patchWidth  = 4
)

var workloads = []*workload{
	{
		name:   "grid100-dense",
		solver: "mwu",
		ops:    40,
		topo:   gridTopo,
		build: func(g *graph.Graph, seed uint64, round, ops int) *plan {
			seq := gravities(g, ops, volume, densePairs, roundRNG(seed, round))
			return submitPlan(g, standing(g, densePairs), seq, 1)
		},
	},
	{
		name:   "wan64-sparse",
		solver: "exact",
		ops:    360,
		topo:   wanTopo,
		build: func(g *graph.Graph, seed uint64, round, ops int) *plan {
			seq := gravities(g, ops, sparseVolume, sparsePairs, roundRNG(seed, round))
			return submitPlan(g, standing(g, wanBase), seq, (readPairs+sparsePairs-1)/sparsePairs)
		},
	},
	{
		name:   "grid100-patch",
		solver: "delta-mwu",
		ops:    324,
		topo:   gridTopo,
		build:  patchPlan,
	},
	{
		name:   "wan64-flap",
		solver: "mwu",
		ops:    40,
		topo:   wanTopo,
		build:  flapPlan,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// planFor is the round's plan: a pure function of the seed, the round index
// and the scale, so two commits given the same arguments do identical work.
func (w *workload) planFor(g *graph.Graph, seed uint64, round int, scale float64) *plan {
	ops := int(float64(w.ops)*scale + 0.5)
	if ops < 2 {
		ops = 2
	}
	return w.build(g, seed, round, ops)
}

func demandBody(d *demand.Demand) []byte {
	var buf bytes.Buffer
	if err := serial.EncodeDemand(&buf, d); err != nil {
		panic(err) // encoding into a buffer cannot fail
	}
	return buf.Bytes()
}

func submitPlan(g *graph.Graph, base *demand.Demand, seq []*demand.Demand, pulls int) *plan {
	p := &plan{g: g, base: base, final: seq[len(seq)-1], readPulls: pulls}
	for _, d := range seq {
		p.ops = append(p.ops, submitOp(d))
	}
	return p
}

func submitOp(d *demand.Demand) op {
	return op{kind: opSubmit, body: demandBody(d), demand: d, gated: true}
}

func patchOp(set []patchEntry) op {
	body, err := json.Marshal(map[string]any{"set": set})
	if err != nil {
		panic(err) // plain structs of numbers always marshal
	}
	return op{kind: opPatch, body: body, set: set, gated: true}
}

// flapOps is one fail→restore cycle of edge e; only the fail is gated.
func flapOps(e int) []op {
	return []op{
		{kind: opFail, edge: e, gated: true, body: []byte(fmt.Sprintf(`{"fail":[%d]}`, e))},
		{kind: opRestore, edge: e, body: []byte(fmt.Sprintf(`{"restore":[%d]}`, e))},
	}
}

type patchEntry struct {
	U      int     `json:"u"`
	V      int     `json:"v"`
	Amount float64 `json:"amount"`
}

// patchPlan nudges patchWidth seeded pairs per op to base*(1±patchNudge).
// Amounts are relative to the base matrix, not to the previous patch, so the
// cumulative drift stays far below the engine's 10% re-anchor guard and the
// cold solves come from the streak cap alone, every ninth epoch.
func patchPlan(g *graph.Graph, seed uint64, round, ops int) *plan {
	rng := roundRNG(seed, round)
	base := standing(g, densePairs)
	pairs := base.Support()
	cur := base.Clone()
	p := &plan{g: g, base: base, readPulls: 1}
	for i := 0; i < ops; i++ {
		var set []patchEntry
		for _, k := range rng.Perm(len(pairs))[:patchWidth] {
			pr := pairs[k]
			f := 1 + patchNudge
			if rng.IntN(2) == 0 {
				f = 1 - patchNudge
			}
			amt := base.Get(pr.U, pr.V) * f
			cur.Set(pr.U, pr.V, amt)
			set = append(set, patchEntry{U: pr.U, V: pr.V, Amount: amt})
		}
		p.ops = append(p.ops, patchOp(set))
	}
	p.final = cur
	return p
}

// nonBridgeEdges lists the edges whose removal keeps g connected.
func nonBridgeEdges(g *graph.Graph) []int {
	var out []int
	for id := 0; id < g.NumEdges(); id++ {
		if sub, _ := graph.RemoveEdges(g, map[int]bool{id: true}); sub.Connected() {
			out = append(out, id)
		}
	}
	return out
}

// flapPlan fails and restores one edge at a time. The run shuffles every
// non-bridge edge once (by seed alone) and round k takes the k-th slice of
// that list, wrapping at its end: every seed then covers the same edge set,
// in a different order, instead of a different random subset whose median
// would move with the seed.
func flapPlan(g *graph.Graph, seed uint64, round, ops int) *plan {
	base := standing(g, wanBase)
	edges := nonBridgeEdges(g)
	rand.New(rand.NewPCG(seed, 0)).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	p := &plan{g: g, base: base, final: base, readPulls: 1}
	cycles := ops / 2
	for i := 0; i < cycles; i++ {
		p.ops = append(p.ops, flapOps(edges[(round*cycles+i)%len(edges)])...)
	}
	return p
}
