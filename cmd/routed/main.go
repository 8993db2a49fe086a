// Command routed is the online routing daemon: the serving form of the
// sparse semi-oblivious construction. At startup it loads a topology and
// runs the offline phase once (sample R candidate paths per pair from an
// oblivious routing) — or restores a previously snapshotted path system and
// skips resampling entirely — then serves the online phase over HTTP:
//
//	POST /v1/demand     push a demand-matrix epoch (?wait=1 blocks on solve)
//	PATCH /v1/demand    push per-pair deltas against the last submitted
//	                    matrix ({"set":[{"u":..,"v":..,"amount":..}],
//	                    "clear":[{"u":..,"v":..}]}); only the touched pairs
//	                    are re-solved when the link state is unchanged
//	GET  /v1/paths      candidate paths + live sending rates for ?src=&dst=
//	GET  /v1/routing    the full active routing
//	POST /v1/links      topology event: {"fail":[...]}, {"restore":[...]},
//	                    declarative {"set":[...]}, or a capacity override
//	                    {"edge":id,"capacity":c} (0 fails, (0,1) degrades,
//	                    >=1 restores full capacity)
//	GET  /v1/links      current link state (version, failed + degraded edges,
//	                    status)
//	POST /v1/snapshot   persist the path system to the --snapshot file
//	GET  /metrics       Prometheus text exposition: epochs, fallbacks,
//	                    failed_edges, degraded_edges, recovery_resamples,
//	                    proactive_resamples, survivor_builds, the
//	                    path_system hash as an _info label, and latency,
//	                    congestion and queue-wait quantiles over the epochs
//	                    /debug/trace retains
//	GET  /debug/trace   recent epoch lifecycle traces — queue wait, solve
//	                    attempt chain, MWU rounds, publish time (?n= bounds
//	                    the count; in-flight MWU progress rides along)
//	GET  /debug/events  time-ordered event journal: link/capacity events,
//	                    health transitions, widening decisions, solve failures
//	GET  /healthz       state machine: ok / degraded (failed or capacity-
//	                    reduced edges, uncovered/at-risk pairs) / 503 closed
//
// -debug-addr serves the pprof profiling surface (/debug/pprof/...) on a
// separate listener, kept off the main port; -slow-solve emits a structured
// log line for epochs slower than the threshold.
//
// Reads are lock-free while epochs solve; a solve that fails or misses
// --deadline leaves the last good routing serving (a fallback counter
// increments). A missed deadline cancels the solve itself — the LP/MWU
// solvers poll a context — so the worker is freed immediately instead of
// burning CPU on a result nobody will use (/metrics counts
// solves_canceled). SIGINT/SIGTERM cancels
// in-flight solves for a prompt drain, writes a final snapshot when
// --snapshot is set, and exits.
//
// Link failures do not restart the engine: a POST /v1/links prunes the
// resident path system to the survivors, immediately republishes the active
// routing renormalized off the dead edges, re-solves the demand, and — when
// a pair's candidates all died but the survivor graph still connects it —
// draws fresh recovery paths on the pruned topology (recovery resampling).
// Pairs a failure leaves with a single surviving candidate are widened
// proactively on the survivor graph before a second failure can disconnect
// them. Nothing accumulates: every event derives the installed system from
// the startup sample and the current capacity map alone, so a long drill
// sequence cannot grow the resident system, and repairing every link
// installs the startup system again.
//
// Fleet mode (--fleet DIR) serves every topology in a directory from one
// process: each <id>.topo.json (or <id>.snap) becomes a shard reachable
// under /v1/t/<id>/..., built lazily on first touch and bounded by
// --resident with LRU eviction (evicted shards snapshot to <id>.snap and
// reload warm with an identical path-system hash). All shards solve on one
// shared worker pool with round-robin fairness, so a hot tenant cannot
// starve its siblings; /healthz rolls shard states into a fleet state
// machine and /metrics renders every resident shard's registry under a topo
// label. The legacy
// un-namespaced /v1/* routes alias to --default (or the sole shard).
// SIGTERM drains by snapshotting every resident shard.
//
// Crash durability: with -snapshot set (or -wal given explicitly) every
// accepted mutation — demand submit, patch, link event — is framed, CRC'd
// and appended to a write-ahead log as it is applied, and acknowledged and
// served only after the flush. On startup the log is replayed over the newest
// snapshot, so even a kill -9 resumes with the exact pre-crash demand matrix
// and link state; a torn tail (power loss mid-write) is truncated at the
// first bad frame and journaled as wal_truncated instead of refusing to
// start. -checkpoint-every bounds replay work by snapshotting and truncating
// the log automatically; POST /v1/snapshot and shutdown also checkpoint.
//
// A capacity override between 0 and 1 degrades a link without failing it:
// its candidates keep serving, but rate adaptation and the published
// congestion run against a capacity-scaled view of the topology, so traffic
// shifts away from the weakened link exactly as far as the re-optimization
// says it should. /healthz reports "degraded" until every edge is restored;
// snapshots taken while degraded carry the startup sample, the failed-edge
// set and the capacity overrides, and a restart derives the same installed
// system (same hash) from them, as the live events did.
//
// Example:
//
//	sparseroute topo -kind wan -n 24 -extra 36 -out topo.json
//	routed -topo topo.json -router raecke -s 4 -snapshot sys.snap &
//	curl -X POST 'localhost:8344/v1/demand?wait=1' -d '{"entries":[{"u":0,"v":9,"amount":2}]}'
//	curl 'localhost:8344/v1/paths?src=0&dst=9'
//	curl -X POST localhost:8344/v1/links -d '{"fail":[3,17]}'   # failure drill
//	curl localhost:8344/healthz                                 # => degraded
//	curl -X POST localhost:8344/v1/links -d '{"restore":[3,17]}'
//	curl -X POST localhost:8344/v1/links -d '{"edge":3,"capacity":0.5}'  # brownout
//	curl -X POST localhost:8344/v1/links -d '{"edge":3,"capacity":1}'    # recover
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sparseroute/internal/fleet"
	"sparseroute/internal/oblivious"
	"sparseroute/internal/service"
)

// options are the parsed flags. The engine flags bind straight into engine —
// the service.Config the single engine runs on as is and fleet mode hands
// every shard as its template — so a new engine flag is one line in
// parseFlags and nothing else.
type options struct {
	addr      string
	topo      string
	snapshot  string
	wal       string
	debugAddr string
	engine    service.Config
	build     oblivious.BuildOptions // Seed stays 0: it defaults to engine.Seed

	// fleet mode
	fleetDir     string
	resident     int
	defaultShard string
}

func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("routed", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", "localhost:8344", "listen address")
	fs.StringVar(&o.topo, "topo", "topo.json", "topology file (ignored when -snapshot restores)")
	fs.StringVar(&o.engine.RouterName, "router", "raecke", strings.Join(oblivious.RouterNames(), "|"))
	fs.IntVar(&o.engine.R, "s", 4, "paths sampled per pair (R)")
	fs.Uint64Var(&o.engine.Seed, "seed", 1, "sampling seed")
	fs.IntVar(&o.build.Dim, "dim", 0, "hypercube dimension (valiant; 0 = infer)")
	fs.IntVar(&o.build.Trees, "trees", 12, "raecke tree count")
	fs.IntVar(&o.build.K, "k", 4, "ksp path count")
	fs.IntVar(&o.engine.Workers, "workers", 2, "solver workers shared by every shard with -fleet; no effect without -fleet (an engine solves one epoch at a time: its latest demand)")
	fs.DurationVar(&o.engine.SolveDeadline, "deadline", 0, "per-epoch solve deadline; on expiry the solve is canceled and the last good routing keeps serving (0 = none)")
	fs.StringVar(&o.snapshot, "snapshot", "", "snapshot file: restored at startup when present, written by POST /v1/snapshot and at shutdown")
	fs.StringVar(&o.wal, "wal", "", "write-ahead log: every accepted mutation is fsynced here before it is acknowledged or served and replayed over the snapshot at startup, so a hard kill loses nothing (default <snapshot>.wal when -snapshot is set; \"off\" disables; fleet mode logs per shard regardless of the path)")
	fs.IntVar(&o.engine.CheckpointEvery, "checkpoint-every", 0, "snapshot + truncate the write-ahead log automatically after this many logged operations (0 = only on snapshot requests and shutdown)")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "separate listen address for the pprof profiling surface (/debug/pprof/...); empty disables it")
	fs.DurationVar(&o.engine.SlowSolveThreshold, "slow-solve", 0, "epochs slower than this (queue wait + solve + publish) emit one structured log line and count in slow_solves (0 = disabled)")
	fs.IntVar(&o.engine.OutcomeHistory, "outcome-history", 0, "epoch outcomes retained for ?wait/Wait lookups before eviction (0 = default 128)")
	fs.IntVar(&o.engine.TraceDepth, "trace-depth", 0, "epoch lifecycle traces retained on /debug/trace, and the epochs the /metrics latency, congestion and queue-wait quantiles cover (0 = default 256)")
	fs.Int64Var(&o.engine.MaxBodyBytes, "max-body", 0, "per-request body cap in bytes; larger POST/PATCH bodies get 413 (0 = default 8 MiB, negative disables)")
	fs.Int64Var(&o.engine.MaxInflightBytes, "inflight-bytes", 0, "total request-body bytes decoded concurrently before mutations shed with 429 (0 = unlimited)")
	fs.Float64Var(&o.engine.MutationRate, "tenant-qps", 0, "per-tenant demand-mutation quota in ops/sec: excess submits and patches shed with 429 + Retry-After; per shard in fleet mode (0 = unlimited)")
	fs.IntVar(&o.engine.MutationBurst, "tenant-burst", 0, "token-bucket depth for -tenant-qps (0 = ceil of the rate)")
	fs.StringVar(&o.fleetDir, "fleet", "", "fleet mode: serve every <id>.topo.json / <id>.snap in this directory as /v1/t/<id>/... (ignores -topo/-snapshot)")
	fs.IntVar(&o.resident, "resident", 0, "fleet mode: max engines resident at once; LRU shards snapshot to disk and reload on demand (0 = unlimited)")
	fs.StringVar(&o.defaultShard, "default", "", "fleet mode: topology the legacy /v1/* routes alias to (default: the sole shard when exactly one exists)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	// Automatic checkpoints land on the snapshot the daemon restores from
	// (fleet mode points each shard at its own <id>.snap instead).
	o.engine.CheckpointPath = o.snapshot
	return o, nil
}

// walPath resolves the -wal flag: an explicit path wins, "off" disables the
// log, and the empty default derives `<snapshot>.wal` when -snapshot is set
// (no snapshot and no explicit path means no log — there is nothing durable
// to extend).
func walPath(o *options) string {
	switch {
	case o.wal == "off":
		return ""
	case o.wal != "":
		return o.wal
	case o.snapshot != "":
		return o.snapshot + ".wal"
	}
	return ""
}

// openEngine brings the single engine up (service.Open: restored from
// o.snapshot when that file exists, otherwise sampled from the topology
// file, the write-ahead log replayed over it either way) and returns its
// handler plus the drain serve runs on the way out: in-flight solves
// complete, a final snapshot is written when configured, then the log
// closes — the shutdown snapshot checkpoints (truncates + re-seeds) the log
// through that handle.
func openEngine(o *options) (http.Handler, func() error, error) {
	opened, err := service.Open(
		service.Files{Snapshot: o.snapshot, Topo: o.topo, WAL: walPath(o)},
		o.engine, o.build)
	if err != nil {
		return nil, nil, err
	}
	e := opened.Engine
	if rs := opened.Replay; rs.Applied > 0 || rs.Truncated {
		fmt.Printf("routed: wal replayed %d ops (%d skipped, truncated=%v)\n",
			rs.Applied, rs.Skipped, rs.Truncated)
	}
	fmt.Print(startupBanner(o, opened))
	drain := func() error {
		if opened.WAL != nil {
			defer opened.WAL.Close()
		}
		e.Close()
		if o.snapshot != "" {
			if _, err := e.SnapshotToFile(o.snapshot); err != nil {
				return fmt.Errorf("final snapshot: %w", err)
			}
		}
		return nil
	}
	return service.NewServer(e, o.snapshot), drain, nil
}

// startupBanner is the line openEngine prints once the engine is up: the
// serving system's pair and path counts and the installed system's hash. The
// counts are two plain passes; PathSystem.Stats would add the dedup, hop and
// disjointness passes the line does not print.
func startupBanner(o *options, opened *service.Opened) string {
	e := opened.Engine
	sys := e.System()
	if opened.Restored {
		return fmt.Sprintf("routed: restored %s: %d pairs, %d paths (hash %016x) — resampling skipped\n",
			o.snapshot, len(sys.Pairs()), sys.TotalPaths(), e.Hash())
	}
	return fmt.Sprintf("routed: sampled %d pairs, %d paths via %s R=%d (hash %016x)\n",
		len(sys.Pairs()), sys.TotalPaths(), o.engine.RouterName, o.engine.R, e.Hash())
}

// openFleet opens the fleet over o.fleetDir; its drain snapshots every
// resident shard to its <id>.snap and closes it.
func openFleet(o *options) (http.Handler, func() error, error) {
	f, err := fleet.Open(fleet.Config{
		Dir:          o.fleetDir,
		DefaultShard: o.defaultShard,
		MaxResident:  o.resident,
		Workers:      o.engine.Workers,
		DisableWAL:   o.wal == "off",
		Engine:       o.engine,
		Build:        o.build,
	})
	if err != nil {
		return nil, nil, err
	}
	fmt.Printf("routed: fleet of %d topologies from %s (default %q)\n",
		len(f.ShardIDs()), o.fleetDir, f.DefaultShard())
	return fleet.NewServer(f), f.Close, nil
}

// serve runs the HTTP server on l until ctx is canceled, then shuts it down
// and drains what it served.
func serve(ctx context.Context, l net.Listener, h http.Handler, drain func() error) error {
	srv := &http.Server{
		Handler: h,
		// Slow-header and idle-connection bounds, so stalled clients cannot
		// pin accept slots on a long-running daemon.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	select {
	case err := <-errc:
		drain()
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		srv.Close()
	}
	return drain()
}

// debugHandler is the profiling surface served on -debug-addr: the pprof
// index plus its named handlers, registered on a private mux so the main
// serving port never exposes profiling and nothing touches the process-global
// DefaultServeMux.
func debugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if o.debugAddr != "" {
		dl, err := net.Listen("tcp", o.debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "routed:", err)
			os.Exit(1)
		}
		fmt.Printf("routed: pprof on http://%s/debug/pprof/\n", dl.Addr())
		// A failing debug server surfaces on stderr but never takes the
		// serving daemon down with it.
		go func() {
			if err := serve(ctx, dl, debugHandler(), func() error { return nil }); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "routed: debug server:", err)
			}
		}()
	}
	open := openEngine
	if o.fleetDir != "" {
		open = openFleet
	}
	h, drain, err := open(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "routed:", err)
		os.Exit(1)
	}
	l, err := net.Listen("tcp", o.addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "routed:", err)
		os.Exit(1)
	}
	fmt.Printf("routed: serving on http://%s\n", l.Addr())
	if err := serve(ctx, l, h, drain); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "routed:", err)
		os.Exit(1)
	}
}
