package serial

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"sparseroute/internal/core"
	"sparseroute/internal/demand"
	"sparseroute/internal/graph"
)

// snapshotVersion is the current snapshot wire-format version. Decoders
// reject snapshots written by a newer format. Version 2 added the
// failed-edge set; version 3 added the partial-capacity overrides of the
// degraded-but-alive edges; version 4 added the write-ahead-log watermark
// (WALSeq) and the link-state version counter (v1–v3 snapshots still decode,
// with the new fields zero). Version 5 keeps the fields of version 4, but
// System is the startup sample even when the snapshot was taken degraded: a
// snapshot is the startup sample plus the capacity map, and the installed
// system is derived from the two on restore. A v1–v4 snapshot taken degraded
// stored the installed system; DecodeSnapshot cuts it back to the startup
// sample (see DecodeSnapshot).
const snapshotVersion = 5

// Snapshot bundles everything the online routing service needs to restart
// without redoing the offline phase: the topology, the startup path system,
// the link state, and the sampling metadata (router name, R, seed) that
// produced the system. A restored engine installs the exact same candidate
// paths as the one that wrote the snapshot — verifiable via PathSystemHash.
type Snapshot struct {
	// Router is the name of the oblivious routing the system was sampled
	// from. A healthy restore never builds it; a degraded one builds its
	// survivor routers from it, as a live link event does.
	Router string
	// R is the per-pair sample count the system was built with.
	R int
	// Seed is the sampling seed.
	Seed uint64
	// Graph is the topology the system routes on.
	Graph *graph.Graph
	// System is the startup path system: the R-sample drawn before any
	// demand arrived, without the recovery and widening paths a degraded
	// link state adds to it. Paths through currently failed edges are stored
	// too.
	System *core.PathSystem
	// FailedEdges is the sorted set of edge IDs that were failed (effective
	// capacity zero) when the snapshot was taken (v2; empty for v1).
	FailedEdges []int
	// Capacities maps degraded-but-alive edges to their effective-capacity
	// multiplier, strictly inside (0,1) (v3; empty for v1/v2). Failed edges
	// live in FailedEdges, never here.
	Capacities map[int]float64
	// WALSeq is the write-ahead-log operation sequence number this snapshot
	// covers: every logged operation with Seq <= WALSeq is already reflected
	// in the snapshot, so replay skips it (v4; 0 for older snapshots).
	WALSeq uint64
	// LinkVersion is the engine's link-state version counter at snapshot
	// time. Restoring it lets replayed link events continue the version
	// sequence of the engine that never restarted; no seed depends on it
	// (v4; 0 for older snapshots, meaning "start fresh at 1").
	LinkVersion uint64
}

// edgeCapacityJSON is one degraded edge on the wire.
type edgeCapacityJSON struct {
	Edge     int     `json:"edge"`
	Capacity float64 `json:"capacity"`
}

// snapshotJSON is the snapshot wire format.
type snapshotJSON struct {
	Version  int                `json:"version"`
	Router   string             `json:"router"`
	R        int                `json:"r"`
	Seed     uint64             `json:"seed"`
	Graph    graphJSON          `json:"graph"`
	System   pathSystemJSON     `json:"system"`
	Failed   []int              `json:"failed_edges,omitempty"`
	Degraded []edgeCapacityJSON `json:"degraded_edges,omitempty"`
	WALSeq   uint64             `json:"wal_seq,omitempty"`
	LinkVer  uint64             `json:"link_version,omitempty"`
}

// EncodeSnapshot writes s as JSON.
func EncodeSnapshot(w io.Writer, s *Snapshot) error {
	if s.Graph == nil || s.System == nil {
		return fmt.Errorf("serial: snapshot needs a graph and a path system")
	}
	failed := append([]int(nil), s.FailedEdges...)
	sort.Ints(failed)
	failedSet := make(map[int]bool, len(failed))
	for i, id := range failed {
		if id < 0 || id >= s.Graph.NumEdges() {
			return fmt.Errorf("serial: snapshot failed edge %d outside graph with %d edges", id, s.Graph.NumEdges())
		}
		if i > 0 && failed[i-1] == id {
			return fmt.Errorf("serial: snapshot failed edge %d listed twice", id)
		}
		failedSet[id] = true
	}
	degraded := make([]edgeCapacityJSON, 0, len(s.Capacities))
	for id, c := range s.Capacities {
		if id < 0 || id >= s.Graph.NumEdges() {
			return fmt.Errorf("serial: snapshot degraded edge %d outside graph with %d edges", id, s.Graph.NumEdges())
		}
		if failedSet[id] {
			return fmt.Errorf("serial: snapshot edge %d both failed and degraded", id)
		}
		if c <= 0 || c >= 1 {
			return fmt.Errorf("serial: snapshot degraded edge %d has capacity multiplier %v outside (0,1)", id, c)
		}
		degraded = append(degraded, edgeCapacityJSON{Edge: id, Capacity: c})
	}
	sort.Slice(degraded, func(i, j int) bool { return degraded[i].Edge < degraded[j].Edge })
	out := snapshotJSON{
		Version:  snapshotVersion,
		Router:   s.Router,
		R:        s.R,
		Seed:     s.Seed,
		Graph:    graphToJSON(s.Graph),
		System:   pathSystemToJSON(s.System),
		Failed:   failed,
		Degraded: degraded,
		WALSeq:   s.WALSeq,
		LinkVer:  s.LinkVersion,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// DecodeSnapshot reads a snapshot, rebuilding the graph and validating every
// stored path against it. A v1–v4 snapshot with failed edges or capacity
// overrides stored the installed system, recovery and widening paths
// included; each pair keeps its first R paths, which is the startup sample
// exactly: core.RSample draws R paths per pair, and every later pass appends
// after them.
func DecodeSnapshot(r io.Reader) (*Snapshot, error) {
	var in snapshotJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("serial: decoding snapshot: %w", err)
	}
	if in.Version <= 0 || in.Version > snapshotVersion {
		return nil, fmt.Errorf("serial: unsupported snapshot version %d (have %d)", in.Version, snapshotVersion)
	}
	if in.Version < 5 && in.R > 0 && len(in.Failed)+len(in.Degraded) > 0 {
		for i := range in.System.Pairs {
			pp := &in.System.Pairs[i]
			pp.Paths = pp.Paths[:min(len(pp.Paths), in.R)]
		}
	}
	g, err := graphFromJSON(in.Graph)
	if err != nil {
		return nil, fmt.Errorf("serial: snapshot graph: %w", err)
	}
	ps, err := pathSystemFromJSON(in.System, g)
	if err != nil {
		return nil, fmt.Errorf("serial: snapshot system: %w", err)
	}
	failedSet := make(map[int]bool, len(in.Failed))
	for _, id := range in.Failed {
		if id < 0 || id >= g.NumEdges() {
			return nil, fmt.Errorf("serial: snapshot failed edge %d outside graph with %d edges", id, g.NumEdges())
		}
		failedSet[id] = true
	}
	var caps map[int]float64
	if len(in.Degraded) > 0 {
		caps = make(map[int]float64, len(in.Degraded))
		for _, ec := range in.Degraded {
			if ec.Edge < 0 || ec.Edge >= g.NumEdges() {
				return nil, fmt.Errorf("serial: snapshot degraded edge %d outside graph with %d edges", ec.Edge, g.NumEdges())
			}
			if failedSet[ec.Edge] {
				return nil, fmt.Errorf("serial: snapshot edge %d both failed and degraded", ec.Edge)
			}
			if _, dup := caps[ec.Edge]; dup {
				return nil, fmt.Errorf("serial: snapshot degraded edge %d listed twice", ec.Edge)
			}
			if ec.Capacity <= 0 || ec.Capacity >= 1 {
				return nil, fmt.Errorf("serial: snapshot degraded edge %d has capacity multiplier %v outside (0,1)", ec.Edge, ec.Capacity)
			}
			caps[ec.Edge] = ec.Capacity
		}
	}
	return &Snapshot{Router: in.Router, R: in.R, Seed: in.Seed, Graph: g, System: ps,
		FailedEdges: in.Failed, Capacities: caps,
		WALSeq: in.WALSeq, LinkVersion: in.LinkVer}, nil
}

// PathSystemHash returns a deterministic FNV-1a digest of the system's
// canonical encoding (graph shape plus every pair's oriented edge-ID
// sequences, in sorted pair order). Two engines serving byte-identical
// candidate sets — e.g. one freshly sampled and one restored from its
// snapshot — report the same hash.
func PathSystemHash(ps *core.PathSystem) uint64 {
	return PathSystemHashOver(ps, ps.Pairs())
}

// PathSystemHashOver is PathSystemHash for a caller that already holds
// ps.Pairs(): pairs must be exactly that sorted list. It streams the same
// bytes through FNV-1a one integer at a time, without materializing them.
func PathSystemHashOver(ps *core.PathSystem, pairs []demand.Pair) uint64 {
	h := fnv64a(fnvOffset64)
	g := ps.Graph()
	h.writeInt(g.NumVertices())
	h.writeInt(g.NumEdges())
	for _, pr := range pairs {
		h.writeInt(pr.U)
		h.writeInt(pr.V)
		paths := ps.Paths(pr.U, pr.V)
		h.writeInt(len(paths))
		for _, p := range paths {
			ids := p.EdgeIDs
			h.writeInt(len(ids))
			// Oriented from pr.U: a path stored the other way round is read
			// backwards.
			if p.Src != pr.U {
				for i := len(ids) - 1; i >= 0; i-- {
					h.writeInt(ids[i])
				}
				continue
			}
			for _, id := range ids {
				h.writeInt(id)
			}
		}
	}
	return uint64(h)
}

// FNV-1a, 64-bit: hash/fnv's constants.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

type fnv64a uint64

// writeInt hashes x's eight little-endian bytes.
func (h *fnv64a) writeInt(x int) {
	v := uint64(x)
	for i := 0; i < 8; i++ {
		*h ^= fnv64a(byte(v))
		*h *= fnvPrime64
		v >>= 8
	}
}
