package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"sparseroute/internal/obs"
	"sparseroute/internal/service"
)

// Server is the HTTP surface over a Fleet: the engine routes, namespaced per
// topology, plus the rolled-up fleet endpoints.
//
//	/v1/t/{topo}/demand|paths|routing|links|snapshot
//	                       the engine surface of shard {topo}, same methods
//	                       and bodies as the single-engine server; the shard
//	                       is made resident on first touch
//	GET  /v1/t/{topo}/healthz
//	                       that shard's own health state machine
//	/v1/demand|paths|...   legacy un-namespaced routes, aliased to the
//	                       default shard; 404 when no default is configured
//	GET  /v1/topologies    shard inventory: IDs, residency, the default
//	GET  /healthz          fleet rollup: ok / degraded / 503 closed
//	GET  /metrics          fleet counters plus every resident shard's
//	                       registry as Prometheus text exposition
//	                       (per-shard series carry a topo label)
//	GET  /debug/events     the fleet-wide event journal: link/health/widening
//	                       events from every shard plus residency transitions
//
// Unknown topology IDs are 404s — a client typo must not read as a server
// fault — and requests after Close begin are 503s.
type Server struct {
	fleet *Fleet
	mux   *http.ServeMux
}

// NewServer wires the fleet's handlers.
func NewServer(f *Fleet) *Server {
	s := &Server{fleet: f, mux: http.NewServeMux()}
	s.mux.HandleFunc("/v1/t/{topo}/{rest...}", s.handleShard)
	s.mux.HandleFunc("/v1/{rest...}", s.handleLegacy)
	s.mux.HandleFunc("GET /v1/topologies", s.handleTopologies)
	s.mux.HandleFunc("GET /metrics", s.handleProm)
	s.mux.HandleFunc("GET /debug/events", s.handleEvents)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Metrics exposes the fleet's metrics registry.
func (f *Fleet) Metrics() *Metrics { return f.metrics }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleShard delegates /v1/t/{topo}/{rest...} to that shard's engine
// server, holding the shard's read lock across the request so eviction
// cannot close the engine mid-flight.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	s.delegate(w, r, r.PathValue("topo"), r.PathValue("rest"))
}

// handleLegacy aliases the un-namespaced /v1/* surface to the default shard,
// so single-topology clients predating the fleet keep working unchanged.
func (s *Server) handleLegacy(w http.ResponseWriter, r *http.Request) {
	def := s.fleet.DefaultShard()
	if def == "" {
		writeError(w, http.StatusNotFound, "no default topology: use /v1/t/{topo}/...")
		return
	}
	s.delegate(w, r, def, r.PathValue("rest"))
}

func (s *Server) delegate(w http.ResponseWriter, r *http.Request, id, rest string) {
	sh, release, err := s.fleet.acquire(id)
	if err != nil {
		switch {
		case errors.Is(err, errUnknownShard):
			writeError(w, http.StatusNotFound, "%v", err)
		case errors.Is(err, errClosed):
			writeError(w, http.StatusServiceUnavailable, "%v", err)
		default:
			writeError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	defer release()
	// Rewrite into the engine server's namespace: the shard-local health and
	// debug endpoints live at the root, everything else under /v1/.
	r2 := r.Clone(r.Context())
	if rest == "healthz" || rest == "metrics" || strings.HasPrefix(rest, "debug/") {
		r2.URL.Path = "/" + rest
	} else {
		r2.URL.Path = "/v1/" + rest
	}
	r2.URL.RawPath = ""
	sh.server.ServeHTTP(w, r2)
}

// topologyInfo is one row of GET /v1/topologies.
type topologyInfo struct {
	ID       string `json:"id"`
	Resident bool   `json:"resident"`
	Default  bool   `json:"default,omitempty"`
}

func (s *Server) handleTopologies(w http.ResponseWriter, _ *http.Request) {
	f := s.fleet
	out := make([]topologyInfo, 0)
	for _, id := range f.ShardIDs() {
		f.mu.Lock()
		sh := f.shards[id]
		f.mu.Unlock()
		sh.mu.RLock()
		resident := sh.engine != nil
		sh.mu.RUnlock()
		out = append(out, topologyInfo{ID: id, Resident: resident, Default: id == f.DefaultShard()})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleProm serves the fleet metrics rollup as Prometheus text exposition.
func (s *Server) handleProm(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", obs.PromContentType)
	s.fleet.Metrics().prom().WriteTo(w)
}

// handleEvents serves the fleet-wide event journal, oldest first.
func (s *Server) handleEvents(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"events": s.fleet.Events()})
}

// handleHealth serves the fleet rollup: 200 while serving (ok or degraded),
// 503 once Close has begun.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	h := s.fleet.health()
	code := http.StatusOK
	if h.Status == service.HealthClosed {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}
