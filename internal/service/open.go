package service

import (
	"errors"
	"fmt"
	"io/fs"
	"os"

	"sparseroute/internal/oblivious"
	"sparseroute/internal/serial"
	"sparseroute/internal/wal"
)

// Files names what Open brings an engine up from.
type Files struct {
	// Snapshot is restored from when the file exists: its state (startup
	// sample, capacity map, link version, WAL watermark) is where the log's
	// fold starts, and resampling is skipped. A snapshot taken degraded has
	// its link state derived again, so its hash is the writer's only under
	// the writer's build options. Any other error opening it refuses
	// startup.
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
// tail), take the startup state from the snapshot when that file exists or
// else decode the topology, build cfg.RouterName's oblivious router and
// sample a fresh path system, fold the log over that state (see fold), and
// only then build the engine and install the state the log ends in, so it
// resumes with the exact demand matrix and link state it was killed with.
// cfg.Graph, cfg.System, cfg.Router and cfg.WAL are set here; everything
// else is the caller's. build.Seed defaults to cfg.Seed; the engine keeps
// build's other options for the survivor routers its link events resample
// from, so a failure resamples from the same kind of mixture the startup
// system came from. On error whatever Open opened is closed again (an engine
// that got as far as existing closes cfg.Pool with it).
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
	s, cfg, restored, err := startup(files, cfg, build)
	var (
		e *Engine
		r *replay
	)
	if err == nil {
		r = fold(s, rec)
		e, err = bringUp(cfg, build, r)
	}
	if err != nil {
		if log != nil {
			log.Close()
		}
		return nil, err
	}
	return &Opened{Engine: e, WAL: log, Restored: restored, Replay: &r.stats}, nil
}

// startup returns the state files bring an engine up at, with cfg completed
// to build it: the snapshot's when files.Snapshot exists (restored), else a
// fresh sample of files.Topo, healthy at link version 1. Any other error
// opening the snapshot refuses startup: sampling afresh would drop the
// snapshot's link state and watermark, and the next checkpoint would
// overwrite the file.
func startup(files Files, cfg Config, build oblivious.BuildOptions) (s state, _ Config, restored bool, err error) {
	if files.Snapshot != "" {
		f, err := os.Open(files.Snapshot)
		if err == nil {
			defer f.Close()
			s, cfg, err := snapshotState(f, cfg)
			if err != nil {
				return s, cfg, false, fmt.Errorf("restoring %s: %w", files.Snapshot, err)
			}
			return s, cfg, true, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return s, cfg, false, fmt.Errorf("opening snapshot: %w", err)
		}
	}
	if files.Topo == "" {
		return s, cfg, false, fmt.Errorf("no snapshot and no topology spec")
	}
	f, err := os.Open(files.Topo)
	if err != nil {
		return s, cfg, false, err
	}
	defer f.Close()
	g, err := serial.DecodeGraph(f)
	if err != nil {
		return s, cfg, false, fmt.Errorf("decoding %s: %w", files.Topo, err)
	}
	if build.Seed == 0 {
		build.Seed = cfg.Seed
	}
	router, err := oblivious.Build(cfg.RouterName, g, &build)
	if err != nil {
		return s, cfg, false, err
	}
	cfg.Graph, cfg.Router = g, router
	if cfg.System, err = startupSample(cfg.withDefaults()); err != nil {
		return s, cfg, false, err
	}
	return state{system: cfg.System, version: 1}, cfg, false, nil
}
