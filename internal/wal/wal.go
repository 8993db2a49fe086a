// Package wal is the crash-durability substrate of the serving stack: an
// append-only, length-prefixed, CRC32-framed record log with fsync-on-commit
// batching. Every state-mutating operation the online engine accepts (demand
// submissions, PATCH deltas, link and capacity events) is framed into this
// log *before* it is applied, so a SIGKILL or power loss between snapshots
// loses nothing a client was acknowledged for: on restart the per-shard log
// is replayed on top of the newest snapshot and the exact pre-crash demand
// matrix and link state are reconstructed.
//
// The on-disk format is a sequence of frames:
//
//	[4-byte little-endian payload length][4-byte IEEE CRC32 of payload][payload]
//
// Recovery (Open) scans frames from the start and stops at the first bad one
// — a short header, a length running past EOF, a zero length (the zero-filled
// tail a torn power-loss write leaves), or a CRC mismatch — truncating the
// file there. A torn tail therefore costs at most the records that were never
// fully synced, never the ability to start.
//
// Durability is two-phase: Append writes a frame (no fsync), Sync is the
// commit barrier. Concurrent committers batch: while one Sync is in flight,
// later appenders queue behind it and the next Sync covers all of them with a
// single fsync (group commit). A failed Append self-heals by truncating the
// partial frame so the log stays parseable. A failed fsync does not: nothing
// says which frames reached the device, so the log goes sticky-broken — every
// caller of that cohort and every later Append or Sync gets the error — until
// a Reset rewrites it from a known state.
//
// The backing file sits behind the Writer seam so fault drills can inject
// write failures, short writes, and sync failures at an exact byte offset
// (see FaultWriter).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// frameHeader is the fixed per-record overhead: the payload length and its
// CRC32, both little-endian uint32.
const frameHeader = 8

// MaxRecord bounds one record's payload. A scanned length above it is treated
// as corruption (truncate point), so a flipped length byte cannot drive a
// multi-gigabyte allocation during recovery.
const MaxRecord = 16 << 20

// errClosed is returned by operations on a closed log.
var errClosed = errors.New("wal: log closed")

// errTooLarge is returned by Append for a payload over MaxRecord.
var errTooLarge = errors.New("wal: record too large")

// Writer is the seam between the log and its backing file. The production
// implementation is an *os.File opened with O_APPEND (writes always land at
// end-of-file, so Truncate followed by Write never leaves a hole); fault
// drills substitute a FaultWriter that fails or short-writes at byte N.
type Writer interface {
	io.Writer
	// Sync flushes written frames to stable storage (the commit barrier).
	Sync() error
	// Truncate discards everything past size — used to drop a partially
	// written frame after a failed Append and to reset the log at a
	// checkpoint.
	Truncate(size int64) error
	Close() error
}

// Options tunes Open.
type Options struct {
	// OpenWriter opens the backing file for appending. Nil means an
	// O_APPEND *os.File. The file already exists (Open creates and
	// truncates it before opening the writer).
	OpenWriter func(path string) (Writer, error)
	// NoSync makes Sync a no-op. Only for tests and throwaway logs; a
	// NoSync log gives no durability past the OS page cache.
	NoSync bool
}

// Recovery reports what Open found in an existing log file.
type Recovery struct {
	// Records holds the payloads of every intact frame, in append order.
	Records [][]byte
	// Truncated reports whether a torn tail (or mid-file corruption) was
	// dropped: the file was cut back to GoodBytes.
	Truncated bool
	// GoodBytes is the byte offset of the first bad frame — the recovered
	// file size.
	GoodBytes int64
	// DroppedBytes counts the bytes discarded past GoodBytes.
	DroppedBytes int64
}

// Log is an append-only record log. Safe for concurrent use.
type Log struct {
	path   string
	noSync bool

	// records/bytes are lifetime counters (recovered at Open plus appended
	// since), monotonic across Reset — the wal_records / wal_bytes expvars.
	records atomic.Int64
	bytes   atomic.Int64

	// syncMu serializes commit barriers and orders before mu: Sync holds
	// syncMu while briefly taking mu to read the write generation.
	syncMu   sync.Mutex
	syncedAt uint64 // write generation covered by the last successful fsync

	mu     sync.Mutex // serializes writes and size accounting
	w      Writer
	size   int64  // current file size in bytes
	writes uint64 // write generation, bumped per successful Append
	// broken is sticky: set when a failed Append could not be rolled back,
	// when an fsync failed, or when a Reset failed past its truncation.
	// Only a successful Reset clears it.
	broken error
	closed bool
}

// openWriterOS is the production Writer: an append-mode file.
func openWriterOS(path string) (Writer, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
}

// Open reads the log at path (creating it when absent), recovers every
// intact record, truncates any torn tail, and returns the log positioned for
// appending. The returned Recovery carries the recovered payloads and
// whether a truncation happened; the caller decides what replaying them
// means.
func Open(path string, opts *Options) (*Log, *Recovery, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		f, cerr := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if cerr != nil && !errors.Is(cerr, os.ErrExist) {
			return nil, nil, fmt.Errorf("wal: creating %s: %w", path, cerr)
		}
		if cerr == nil {
			f.Close()
		}
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("wal: reading %s: %w", path, err)
	}

	records, good := Scan(data)
	rec := &Recovery{
		Records:      records,
		GoodBytes:    good,
		Truncated:    good < int64(len(data)),
		DroppedBytes: int64(len(data)) - good,
	}
	if rec.Truncated {
		if err := os.Truncate(path, good); err != nil {
			return nil, nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
		}
	}

	open := o.OpenWriter
	if open == nil {
		open = openWriterOS
	}
	w, err := open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: opening %s for append: %w", path, err)
	}
	l := &Log{path: path, noSync: o.NoSync, w: w, size: good}
	l.records.Store(int64(len(records)))
	l.bytes.Store(good)
	return l, rec, nil
}

// Scan walks data frame by frame, returning every intact payload and the
// byte offset of the first bad frame (== len(data) when the whole buffer is
// clean). It never panics on arbitrary input — this is the surface
// FuzzWALReplay drives.
func Scan(data []byte) (records [][]byte, goodBytes int64) {
	off := 0
	for {
		if len(data)-off < frameHeader {
			return records, int64(off) // short header (or clean EOF)
		}
		n := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		// A zero length is what a zero-filled (power-loss) tail looks like;
		// real frames always carry a payload.
		if n == 0 || n > MaxRecord {
			return records, int64(off)
		}
		end := off + frameHeader + int(n)
		if end > len(data) || end < off {
			return records, int64(off) // length runs past EOF
		}
		payload := data[off+frameHeader : end]
		if crc32.ChecksumIEEE(payload) != sum {
			return records, int64(off)
		}
		records = append(records, append([]byte(nil), payload...))
		off = end
	}
}

// AppendFrame appends one framed payload to buf and returns the result —
// the encoding side of Scan, shared by Append and the tests/fuzzers that
// build synthetic logs.
func AppendFrame(buf, payload []byte) []byte {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	return append(append(buf, hdr[:]...), payload...)
}

// Append writes one record frame. It does NOT fsync — call Sync to make the
// record durable (the two-phase split is what lets concurrent committers
// share one fsync). On a write error the partial frame is truncated away so
// the file stays parseable; if even the truncation fails the log goes
// sticky-broken and every later Append reports it.
func (l *Log) Append(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errClosed
	}
	if l.broken != nil {
		return l.broken
	}
	return l.write(payload)
}

// write frames payload onto the end of the file. Callers hold mu.
func (l *Log) write(payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("wal: empty record")
	}
	if len(payload) > MaxRecord {
		return fmt.Errorf("%w: %d bytes (max %d)", errTooLarge, len(payload), MaxRecord)
	}
	frame := AppendFrame(nil, payload)
	n, err := l.w.Write(frame)
	if err != nil || n != len(frame) {
		if err == nil {
			err = io.ErrShortWrite
		}
		// Roll the partial frame back so the next append starts on a clean
		// boundary; a failed rollback leaves unparseable bytes mid-file, so
		// the log refuses further appends rather than bury good-looking
		// frames behind garbage.
		if terr := l.w.Truncate(l.size); terr != nil {
			l.broken = fmt.Errorf("wal: append failed (%v) and rollback failed (%v)", err, terr)
			return l.broken
		}
		return fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(n)
	l.writes++
	l.records.Add(1)
	l.bytes.Add(int64(n))
	return nil
}

// Sync is the commit barrier: it fsyncs every frame appended so far. While
// one Sync runs, callers that appended in the meantime queue behind it and
// the first to enter issues a single fsync covering the whole cohort — the
// fsync-on-commit batching that keeps a busy engine from paying one disk
// flush per operation. A failed fsync breaks the log (see Log.broken): the
// callers queued behind it get the same error instead of a fresh fsync that
// would succeed without saying whether their frames survived the failure.
func (l *Log) Sync() error {
	if l.noSync {
		return nil
	}
	l.mu.Lock()
	target := l.writes
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return errClosed
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.syncedAt >= target {
		return nil // a sibling's fsync already covered our frames
	}
	l.mu.Lock()
	covered, w, closed, broken := l.writes, l.w, l.closed, l.broken
	l.mu.Unlock()
	if closed {
		return errClosed
	}
	if broken != nil {
		return broken
	}
	if err := w.Sync(); err != nil {
		err = fmt.Errorf("wal: sync: %w", err)
		l.mu.Lock()
		l.broken = err
		l.mu.Unlock()
		return err
	}
	l.syncedAt = covered
	return nil
}

// Commit appends one record and waits for it to be durable — Append + Sync.
func (l *Log) Commit(payload []byte) error {
	if err := l.Append(payload); err != nil {
		return err
	}
	return l.Sync()
}

// Reset rewrites the log as seed alone (empty when seed is nil) — the
// checkpoint operation: once a snapshot durably carries every applied
// record's effect, the records themselves are dead weight, and seed carries
// what the snapshot does not. The truncation, the seed and their fsync all
// happen under the commit barrier, so a Sync waiting on it returns only once
// the rewritten log is durable. A successful Reset clears a broken log; one
// that fails after truncating breaks it. Lifetime counters (Records/Bytes)
// keep counting across resets.
func (l *Log) Reset(seed []byte) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errClosed
	}
	if err := l.w.Truncate(0); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	l.size = 0
	l.broken = nil
	if len(seed) > 0 {
		l.broken = l.write(seed)
	}
	if l.broken == nil && !l.noSync {
		if err := l.w.Sync(); err != nil {
			l.broken = fmt.Errorf("wal: reset sync: %w", err)
		}
	}
	if l.broken != nil {
		return l.broken
	}
	l.syncedAt = l.writes
	return nil
}

// Size returns the current file size in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Records returns the lifetime record count: frames recovered at Open plus
// frames appended since, monotonic across Reset.
func (l *Log) Records() int64 { return l.records.Load() }

// Bytes returns the lifetime byte count (same accounting as Records).
func (l *Log) Bytes() int64 { return l.bytes.Load() }

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Close closes the backing file. Further operations return errClosed.
func (l *Log) Close() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.w.Close()
}
