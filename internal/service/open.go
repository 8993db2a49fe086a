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
	// Snapshot is restored from when the file exists: resampling is skipped
	// and the path-system hash is the snapshot's. A snapshot taken degraded
	// has its link state derived again, so its hash is the writer's only
	// under the writer's build options and Config.AtRiskHeadroom. Any other
	// error opening it refuses startup.
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
	e, capacity, err := restoreOrSample(files, cfg, build)
	var stats *ReplayStats
	if err == nil {
		if stats, err = e.replayWAL(rec, capacity); err != nil {
			e.Close()
		}
	}
	if err != nil {
		if log != nil {
			log.Close()
		}
		return nil, err
	}
	return &Opened{Engine: e, WAL: log, Restored: capacity != nil, Replay: stats}, nil
}

// restoreOrSample brings the engine up from files.Snapshot when that file
// exists, else from files.Topo. A restored engine starts healthy and comes
// with the snapshot's capacity map (non-nil, empty when the snapshot was
// taken healthy) for the replay fold to start from; a sampled one comes with
// nil. Any other error opening the snapshot refuses startup: sampling afresh
// would drop the snapshot's link state and watermark, and the next checkpoint
// would overwrite the file. The engine keeps build for its survivor routers,
// so the link state a snapshot or a replayed log ends in is derived from the
// same kind of mixture the startup system came from.
func restoreOrSample(files Files, cfg Config, build oblivious.BuildOptions) (*Engine, map[int]float64, error) {
	if files.Snapshot != "" {
		f, err := os.Open(files.Snapshot)
		if err == nil {
			defer f.Close()
			e, capacity, err := restore(f, cfg, build)
			if err != nil {
				return nil, nil, fmt.Errorf("restoring %s: %w", files.Snapshot, err)
			}
			return e, capacity, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return nil, nil, fmt.Errorf("opening snapshot: %w", err)
		}
	}
	if files.Topo == "" {
		return nil, nil, fmt.Errorf("no snapshot and no topology spec")
	}
	f, err := os.Open(files.Topo)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	g, err := serial.DecodeGraph(f)
	if err != nil {
		return nil, nil, fmt.Errorf("decoding %s: %w", files.Topo, err)
	}
	if build.Seed == 0 {
		build.Seed = cfg.Seed
	}
	router, err := oblivious.Build(cfg.RouterName, g, &build)
	if err != nil {
		return nil, nil, err
	}
	cfg.Graph, cfg.Router = g, router
	e, err := New(cfg)
	if err != nil {
		return nil, nil, err
	}
	e.build = build
	return e, nil, nil
}
