package service

import (
	"fmt"
	"os"
	"slices"

	"sparseroute/internal/core"
	"sparseroute/internal/graph"
	"sparseroute/internal/oblivious"
	"sparseroute/internal/obs"
	"sparseroute/internal/serial"
	"sparseroute/internal/wal"
)

// Files names what Open brings an engine up from.
type Files struct {
	// Snapshot is restored from when the file exists: resampling is skipped
	// and the path-system hash is the snapshot's.
	Snapshot string
	// Topo is the topology spec the path system is sampled from when there
	// is no snapshot to restore.
	Topo string
	// WAL, when non-empty, is the write-ahead log to open, log into and
	// replay. Empty runs without a log.
	WAL string
}

// Opened is a brought-up engine and what Open learned on the way.
type Opened struct {
	Engine *Engine
	// WAL is the open log the engine appends to, nil when Files.WAL was
	// empty. The caller closes it after the engine has drained.
	WAL *wal.Log
	// Restored reports a warm start from Files.Snapshot.
	Restored bool
	Replay   *ReplayStats
}

// Open is the one engine bring-up path, shared by the single-engine daemon
// and every fleet shard: open the write-ahead log first (recovering a torn
// tail), restore from the snapshot when that file exists or else decode the
// topology, build cfg.RouterName's oblivious router and sample a fresh path
// system, then replay the log over the engine so it resumes with the exact
// demand matrix and link state it was killed with. cfg.Graph, cfg.Router and
// cfg.WAL are set here; everything else is the caller's. build.Seed defaults
// to cfg.Seed; the engine keeps build's other options for the survivor
// routers its link events resample from, so a failure resamples from the
// same kind of mixture the startup system came from. On error whatever Open
// opened is closed again (an engine that got as far as existing closes
// cfg.Pool with it).
func Open(files Files, cfg Config, build oblivious.BuildOptions) (*Opened, error) {
	var (
		log *wal.Log
		rec *wal.Recovery
	)
	if files.WAL != "" {
		var err error
		log, rec, err = wal.Open(files.WAL, nil)
		if err != nil {
			return nil, fmt.Errorf("opening wal %s: %w", files.WAL, err)
		}
		cfg.WAL = log
	}
	e, restored, err := restoreOrSample(files, cfg, build)
	var stats *ReplayStats
	if err == nil {
		// Before replay: the link state a replayed log ends in is derived
		// from the startup sample, with survivor routers of these options.
		e.build = build
		if restored && e.links.Load().degraded() {
			if err := e.redrawOriginal(); err != nil {
				e.record(obs.EventBaseline, map[string]any{"err": err.Error()})
			}
		}
		if stats, err = e.ReplayWAL(rec); err != nil {
			e.Close()
		}
	}
	if err != nil {
		if log != nil {
			log.Close()
		}
		return nil, err
	}
	return &Opened{Engine: e, WAL: log, Restored: restored, Replay: stats}, nil
}

// redrawOriginal gives an engine restored from a degraded snapshot its
// startup sample back. Such a snapshot stores the recovery extras beside the
// startup sample, and New takes the whole restored system for the startup
// system, which every later link state would be derived from. The startup
// sample is re-drawn from the snapshot's router, R and seed with Open's build
// options, and adopted only if it is a per-pair prefix of the restored
// system; on an error the restored system stays the baseline. Open calls it
// before the engine serves anything.
func (e *Engine) redrawOriginal() error {
	opt := e.build
	if opt.Seed == 0 {
		opt.Seed = e.cfg.Seed
	}
	router, err := oblivious.Build(e.cfg.RouterName, e.cfg.Graph, &opt)
	if err != nil {
		return err
	}
	sample, err := core.RSample(router, e.pairs, e.cfg.R, e.cfg.Seed)
	if err != nil {
		return err
	}
	installed := e.links.Load().installed
	for _, pr := range e.pairs {
		if !pathsPrefix(sample.Paths(pr.U, pr.V), installed.Paths(pr.U, pr.V)) {
			return fmt.Errorf("re-drawn sample of pair %d-%d is not a prefix of the restored one", pr.U, pr.V)
		}
	}
	e.original, e.originalHash = sample, new(pathHash)
	return nil
}

// pathsPrefix reports whether prefix is a non-empty prefix of paths, path
// for path as edge sequences read from the same endpoint.
func pathsPrefix(prefix, paths []graph.Path) bool {
	if len(prefix) == 0 || len(prefix) > len(paths) {
		return false
	}
	for i, p := range prefix {
		q := paths[i]
		if q.Src != p.Src {
			q = q.Reverse()
		}
		if q.Src != p.Src || q.Dst != p.Dst || !slices.Equal(q.EdgeIDs, p.EdgeIDs) {
			return false
		}
	}
	return true
}

func restoreOrSample(files Files, cfg Config, build oblivious.BuildOptions) (*Engine, bool, error) {
	if files.Snapshot != "" {
		if f, err := os.Open(files.Snapshot); err == nil {
			defer f.Close()
			e, err := Restore(f, cfg)
			if err != nil {
				return nil, false, fmt.Errorf("restoring %s: %w", files.Snapshot, err)
			}
			return e, true, nil
		}
	}
	if files.Topo == "" {
		return nil, false, fmt.Errorf("no snapshot and no topology spec")
	}
	f, err := os.Open(files.Topo)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	g, err := serial.DecodeGraph(f)
	if err != nil {
		return nil, false, fmt.Errorf("decoding %s: %w", files.Topo, err)
	}
	if build.Seed == 0 {
		build.Seed = cfg.Seed
	}
	router, err := oblivious.Build(cfg.RouterName, g, &build)
	if err != nil {
		return nil, false, err
	}
	cfg.Graph, cfg.Router = g, router
	e, err := New(cfg)
	return e, false, err
}
