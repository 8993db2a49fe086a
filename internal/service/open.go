package service

import (
	"fmt"
	"os"

	"sparseroute/internal/oblivious"
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
		// Before replay: replayed link events build survivor routers too.
		e.build = build
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
