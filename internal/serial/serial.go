// Package serial defines the on-disk JSON formats for graphs, demands, path
// systems and routings, so topologies and installed path systems can be
// generated once, inspected, versioned, and replayed — the workflow the
// cmd/sparseroute tool exposes (generate topology → sample system → adapt to
// demands), mirroring how a traffic-engineering pipeline would deploy the
// construction.
package serial

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"

	"sparseroute/internal/core"
	"sparseroute/internal/demand"
	"sparseroute/internal/flow"
	"sparseroute/internal/graph"
)

// graphJSON is the graph wire format.
type graphJSON struct {
	Vertices int        `json:"vertices"`
	Edges    []edgeJSON `json:"edges"`
}

// edgeJSON is one edge. Edge IDs are implicit: the i-th entry has ID i.
type edgeJSON struct {
	U        int     `json:"u"`
	V        int     `json:"v"`
	Capacity float64 `json:"capacity"`
}

// graphToJSON converts g to its wire form.
func graphToJSON(g *graph.Graph) graphJSON {
	out := graphJSON{Vertices: g.NumVertices()}
	for _, e := range g.Edges() {
		out.Edges = append(out.Edges, edgeJSON{U: e.U, V: e.V, Capacity: e.Capacity})
	}
	return out
}

// graphFromJSON validates the wire form and rebuilds the graph. Edge IDs are
// assigned in wire order, so paths serialized against this graph stay valid.
func graphFromJSON(in graphJSON) (*graph.Graph, error) {
	if in.Vertices < 0 {
		return nil, fmt.Errorf("serial: negative vertex count")
	}
	g := graph.New(in.Vertices)
	for i, e := range in.Edges {
		if e.U < 0 || e.U >= in.Vertices || e.V < 0 || e.V >= in.Vertices || e.U == e.V || e.Capacity <= 0 {
			return nil, fmt.Errorf("serial: edge %d invalid: %+v", i, e)
		}
		g.AddEdge(e.U, e.V, e.Capacity)
	}
	return g, nil
}

// EncodeGraph writes g as JSON.
func EncodeGraph(w io.Writer, g *graph.Graph) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(graphToJSON(g))
}

// DecodeGraph reads a graph from JSON.
func DecodeGraph(r io.Reader) (*graph.Graph, error) {
	var in graphJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("serial: decoding graph: %w", err)
	}
	return graphFromJSON(in)
}

// demandJSON is the demand wire format.
type demandJSON struct {
	Entries []demandEntryJSON `json:"entries"`
}

// demandEntryJSON is one demand pair.
type demandEntryJSON struct {
	U      int     `json:"u"`
	V      int     `json:"v"`
	Amount float64 `json:"amount"`
}

// EncodeDemand writes d as JSON (sorted pairs, deterministic output).
func EncodeDemand(w io.Writer, d *demand.Demand) error {
	var out demandJSON
	for _, p := range d.Support() {
		out.Entries = append(out.Entries, demandEntryJSON{U: p.U, V: p.V, Amount: d.Get(p.U, p.V)})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// DecodeDemand reads a demand from JSON.
func DecodeDemand(r io.Reader) (*demand.Demand, error) {
	var in demandJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("serial: decoding demand: %w", err)
	}
	d := demand.New()
	for i, e := range in.Entries {
		if e.U == e.V || e.Amount <= 0 {
			return nil, fmt.Errorf("serial: demand entry %d invalid: %+v", i, e)
		}
		d.Add(e.U, e.V, e.Amount)
	}
	return d, nil
}

// pathSystemJSON is the path-system wire format. Paths reference edge IDs of
// the accompanying graph file.
type pathSystemJSON struct {
	Pairs []pairPathsJSON `json:"pairs"`
}

// pairPathsJSON holds the candidate paths of one pair.
type pairPathsJSON struct {
	U     int     `json:"u"`
	V     int     `json:"v"`
	Paths [][]int `json:"paths"`
}

// pathSystemToJSON converts ps to its wire form, each path oriented from the
// pair's smaller endpoint for a canonical encoding.
func pathSystemToJSON(ps *core.PathSystem) pathSystemJSON {
	var out pathSystemJSON
	for _, pr := range ps.Pairs() {
		pp := pairPathsJSON{U: pr.U, V: pr.V}
		for _, p := range ps.Paths(pr.U, pr.V) {
			ids := p.EdgeIDs
			if ids == nil {
				ids = []int{}
			}
			// Orient each stored path from pr.U for a canonical encoding.
			if p.Src != pr.U {
				ids = p.Reverse().EdgeIDs
			}
			pp.Paths = append(pp.Paths, ids)
		}
		out.Pairs = append(out.Pairs, pp)
	}
	return out
}

// pathSystemFromJSON validates the wire form against g and rebuilds the
// system.
func pathSystemFromJSON(in pathSystemJSON, g *graph.Graph) (*core.PathSystem, error) {
	ps := core.NewPathSystem(g)
	for _, pp := range in.Pairs {
		for i, ids := range pp.Paths {
			p := graph.Path{Src: pp.U, Dst: pp.V, EdgeIDs: ids}
			if err := ps.AddPath(p); err != nil {
				return nil, fmt.Errorf("serial: pair (%d,%d) path %d: %w", pp.U, pp.V, i, err)
			}
		}
	}
	return ps, nil
}

// EncodePathSystem writes ps as JSON.
func EncodePathSystem(w io.Writer, ps *core.PathSystem) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(pathSystemToJSON(ps))
}

// DecodePathSystem reads a path system over g from JSON. Every path is
// validated against g.
func DecodePathSystem(r io.Reader, g *graph.Graph) (*core.PathSystem, error) {
	var in pathSystemJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("serial: decoding path system: %w", err)
	}
	return pathSystemFromJSON(in, g)
}

// routingJSON is the routing wire format.
type routingJSON struct {
	Pairs []pairFlowsJSON `json:"pairs"`
}

// pairFlowsJSON holds the weighted paths of one pair.
type pairFlowsJSON struct {
	U     int                `json:"u"`
	V     int                `json:"v"`
	Paths []weightedPathJSON `json:"paths"`
}

// weightedPathJSON is one weighted path.
type weightedPathJSON struct {
	Edges  []int   `json:"edges"`
	Weight float64 `json:"weight"`
}

// AppendRouting appends r in its compact wire form (routingJSON) to b: pairs
// in (U, V) order, each path's edge IDs oriented from its pair's U. The
// bytes are exactly what encoding/json writes for the same routingJSON,
// built without reflection or an intermediate value. A NaN or infinite
// weight is an error, as it is for json.Marshal.
func AppendRouting(b []byte, r flow.Routing) ([]byte, error) {
	if len(r) == 0 {
		return append(b, `{"pairs":null}`...), nil
	}
	// Grow b once, by a bound on what a pair (≤ 32 bytes), a path (≤ 48 plus
	// ≤ 5 per edge ID below 10,000) adds, instead of doubling toward it.
	pairs := make([]demand.Pair, 0, len(r))
	size := 16
	for pr, wps := range r {
		pairs = append(pairs, pr)
		size += 32
		for _, wp := range wps {
			size += 48 + 5*len(wp.Path.EdgeIDs)
		}
	}
	b = slices.Grow(b, size)
	slices.SortFunc(pairs, func(a, b demand.Pair) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
	})
	b = append(b, `{"pairs":[`...)
	for i, pr := range pairs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"u":`...)
		b = strconv.AppendInt(b, int64(pr.U), 10)
		b = append(b, `,"v":`...)
		b = strconv.AppendInt(b, int64(pr.V), 10)
		b = append(b, `,"paths":`...)
		wps := r[pr]
		if len(wps) == 0 {
			b = append(b, "null}"...)
			continue
		}
		for j, wp := range wps {
			if j == 0 {
				b = append(b, `[{"edges":[`...)
			} else {
				b = append(b, `,{"edges":[`...)
			}
			ids, last := wp.Path.EdgeIDs, len(wp.Path.EdgeIDs)-1
			for k := range ids {
				if k > 0 {
					b = append(b, ',')
				}
				id := ids[k]
				if wp.Path.Src != pr.U {
					id = ids[last-k] // stored from V: read it backwards
				}
				b = strconv.AppendInt(b, int64(id), 10)
			}
			b = append(b, `],"weight":`...)
			var err error
			if b, err = appendFloat(b, wp.Weight); err != nil {
				return nil, fmt.Errorf("serial: pair (%d,%d) path %d: %w", pr.U, pr.V, j, err)
			}
			b = append(b, '}')
		}
		b = append(b, "]}"...)
	}
	return append(b, "]}"...), nil
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// round-tripping 'f' form, switching to 'e' below 1e-6 and from 1e21 up,
// with a one-digit negative exponent written without its leading zero.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, fmt.Errorf("unsupported value %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 -> e-7
		b = b[:n-1]
	}
	return b, nil
}

// EncodeRouting writes a routing as compact JSON (AppendRouting) and a
// newline. The graph is not consulted: paths carry their edge IDs.
func EncodeRouting(w io.Writer, _ *graph.Graph, r flow.Routing) error {
	b, err := AppendRouting(nil, r)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// DecodeRouting reads a routing over g from JSON, validating every path.
func DecodeRouting(r io.Reader, g *graph.Graph) (flow.Routing, error) {
	var in routingJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("serial: decoding routing: %w", err)
	}
	out := flow.New()
	for _, pf := range in.Pairs {
		for i, wp := range pf.Paths {
			p := graph.Path{Src: pf.U, Dst: pf.V, EdgeIDs: wp.Edges}
			if err := p.Validate(g); err != nil {
				return nil, fmt.Errorf("serial: pair (%d,%d) path %d: %w", pf.U, pf.V, i, err)
			}
			if wp.Weight <= 0 {
				return nil, fmt.Errorf("serial: pair (%d,%d) path %d: nonpositive weight", pf.U, pf.V, i)
			}
			out.AddFlow(p, wp.Weight)
		}
	}
	return out, nil
}
