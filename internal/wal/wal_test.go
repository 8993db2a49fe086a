package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func tmpLog(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "test.wal")
}

func mustOpen(t *testing.T, path string, opts *Options) (*Log, *Recovery) {
	t.Helper()
	l, rec, err := Open(path, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	t.Cleanup(func() { l.Close() })
	return l, rec
}

func payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("record-%03d-%s", i, "payload"))
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	path := tmpLog(t)
	l, rec := mustOpen(t, path, nil)
	if len(rec.Records) != 0 || rec.Truncated {
		t.Fatalf("fresh log recovered %d records, truncated=%v", len(rec.Records), rec.Truncated)
	}
	want := payloads(20)
	for _, p := range want {
		if err := l.Commit(p); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
	if got := l.Records(); got != 20 {
		t.Fatalf("Records() = %d, want 20", got)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, rec2 := mustOpen(t, path, nil)
	defer l2.Close()
	if rec2.Truncated {
		t.Fatalf("clean log reported truncation: %+v", rec2)
	}
	if len(rec2.Records) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(rec2.Records), len(want))
	}
	for i, p := range want {
		if !bytes.Equal(rec2.Records[i], p) {
			t.Fatalf("record %d = %q, want %q", i, rec2.Records[i], p)
		}
	}
}

// buildFile writes a synthetic log of framed payloads straight to disk.
func buildFile(t *testing.T, path string, recs [][]byte) []byte {
	t.Helper()
	var buf []byte
	for _, r := range recs {
		buf = AppendFrame(buf, r)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return buf
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	return fi.Size()
}

func TestTornTailTruncatedLengthPrefix(t *testing.T) {
	path := tmpLog(t)
	buf := buildFile(t, path, payloads(5))
	// Append 3 bytes of a next frame's length prefix — a torn header.
	if err := os.WriteFile(path, append(buf, 0x10, 0x00, 0x00), 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec := mustOpen(t, path, nil)
	defer l.Close()
	if !rec.Truncated || rec.DroppedBytes != 3 || len(rec.Records) != 5 {
		t.Fatalf("recovery = %+v (records=%d), want truncated with 3 dropped bytes and 5 records",
			rec, len(rec.Records))
	}
	if got := fileSize(t, path); got != rec.GoodBytes {
		t.Fatalf("file size after recovery = %d, want %d", got, rec.GoodBytes)
	}
	// The recovered log must accept fresh appends that survive another reopen.
	if err := l.Commit([]byte("after-recovery")); err != nil {
		t.Fatalf("Commit after recovery: %v", err)
	}
	l.Close()
	_, rec2 := mustOpen(t, path, nil)
	if rec2.Truncated || len(rec2.Records) != 6 {
		t.Fatalf("second recovery = %+v (records=%d), want 6 clean records", rec2, len(rec2.Records))
	}
}

func TestTornTailPartialPayload(t *testing.T) {
	path := tmpLog(t)
	full := buildFile(t, path, payloads(5))
	// Cut the last frame's payload in half (header intact, payload short).
	if err := os.WriteFile(path, full[:len(full)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec := mustOpen(t, path, nil)
	defer l.Close()
	if !rec.Truncated || len(rec.Records) != 4 {
		t.Fatalf("recovery = %+v (records=%d), want 4 records with truncation", rec, len(rec.Records))
	}
}

func TestBadCRCMidFile(t *testing.T) {
	path := tmpLog(t)
	recs := payloads(6)
	buf := buildFile(t, path, recs)
	// Flip a payload byte inside record 3: everything from there is dropped,
	// records 0-2 survive.
	var off int
	for i := 0; i < 3; i++ {
		off += frameHeader + len(recs[i])
	}
	buf[off+frameHeader+2] ^= 0xFF
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec := mustOpen(t, path, nil)
	defer l.Close()
	if !rec.Truncated || len(rec.Records) != 3 {
		t.Fatalf("recovery = %+v (records=%d), want 3 records with truncation", rec, len(rec.Records))
	}
	if rec.GoodBytes != int64(off) {
		t.Fatalf("GoodBytes = %d, want %d", rec.GoodBytes, off)
	}
}

func TestZeroFilledTail(t *testing.T) {
	path := tmpLog(t)
	buf := buildFile(t, path, payloads(4))
	// Simulated power loss: the filesystem extended the file but the data
	// never hit the platter — a run of zeros past the last good frame.
	if err := os.WriteFile(path, append(buf, make([]byte, 512)...), 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec := mustOpen(t, path, nil)
	defer l.Close()
	if !rec.Truncated || len(rec.Records) != 4 || rec.DroppedBytes != 512 {
		t.Fatalf("recovery = %+v (records=%d), want 4 records and 512 dropped zero bytes",
			rec, len(rec.Records))
	}
}

func TestScanOversizedLength(t *testing.T) {
	var buf []byte
	buf = AppendFrame(buf, []byte("good"))
	good := int64(len(buf))
	// A length field over MaxRecord must stop the scan, not allocate.
	buf = append(buf, 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0)
	recs, n := Scan(buf)
	if len(recs) != 1 || n != good {
		t.Fatalf("Scan = %d records, good=%d; want 1 record, good=%d", len(recs), n, good)
	}
}

func TestReset(t *testing.T) {
	path := tmpLog(t)
	l, _ := mustOpen(t, path, nil)
	for _, p := range payloads(10) {
		if err := l.Commit(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Reset(nil); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if got := fileSize(t, path); got != 0 {
		t.Fatalf("file size after Reset = %d, want 0", got)
	}
	// Lifetime counters survive the reset.
	if got := l.Records(); got != 10 {
		t.Fatalf("Records() after Reset = %d, want 10", got)
	}
	// Appends after Reset land at offset 0 (O_APPEND semantics), so a
	// reopen sees exactly the post-reset records.
	if err := l.Commit([]byte("post-reset")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, rec := mustOpen(t, path, nil)
	if rec.Truncated || len(rec.Records) != 1 || string(rec.Records[0]) != "post-reset" {
		t.Fatalf("post-reset recovery = %+v (records=%d)", rec, len(rec.Records))
	}
}

func TestConcurrentCommitGroup(t *testing.T) {
	path := tmpLog(t)
	l, _ := mustOpen(t, path, nil)
	const writers, each = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := l.Commit([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent Commit: %v", err)
	}
	l.Close()
	_, rec := mustOpen(t, path, nil)
	if rec.Truncated || len(rec.Records) != writers*each {
		t.Fatalf("recovered %d records (truncated=%v), want %d",
			len(rec.Records), rec.Truncated, writers*each)
	}
}

// TestFaultShortWriteSelfHeals drives the FaultWriter seam: the append that
// crosses the fault boundary short-writes, the log truncates the partial
// frame, and a reopen sees only the records that fully committed.
func TestFaultShortWriteSelfHeals(t *testing.T) {
	path := tmpLog(t)
	// Budget for exactly 2 full frames plus half of a third.
	frame := len(AppendFrame(nil, payloads(1)[0]))
	budget := int64(2*frame + frame/2)
	var fw *FaultWriter
	opts := &Options{OpenWriter: func(p string) (Writer, error) {
		w, err := openWriterOS(p)
		if err != nil {
			return nil, err
		}
		fw = NewFaultWriter(w, budget, false)
		return fw, nil
	}}
	l, _ := mustOpen(t, path, opts)
	recs := payloads(4)
	var failed int
	for _, p := range recs {
		if err := l.Commit(p); err != nil {
			failed++
		}
	}
	if failed != 2 {
		t.Fatalf("failed commits = %d, want 2 (one short write, one hard fail)", failed)
	}
	l.Close()
	l2, rec := mustOpen(t, path, nil)
	defer l2.Close()
	if rec.Truncated || len(rec.Records) != 2 {
		t.Fatalf("after fault: recovered %d records (truncated=%v), want 2 clean",
			len(rec.Records), rec.Truncated)
	}
}

func TestFaultSyncError(t *testing.T) {
	path := tmpLog(t)
	opts := &Options{OpenWriter: func(p string) (Writer, error) {
		w, err := openWriterOS(p)
		if err != nil {
			return nil, err
		}
		return NewFaultWriter(w, 0, true), nil
	}}
	l, _ := mustOpen(t, path, opts)
	if err := l.Append([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("Append with zero budget = %v, want ErrInjected", err)
	}
	if err := l.Sync(); err != nil {
		// No frames were appended, so Sync has nothing to cover and may
		// legitimately succeed without touching the device.
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("Sync = %v", err)
		}
	}
}

// hookWriter is the OS-file Writer with hook run before every Sync, given
// its 1-based call count: a hook error fails that Sync without touching the
// device, and a blocking hook holds the Sync in flight. After every fsync
// that succeeds it keeps a copy of the file, what a crash would leave.
type hookWriter struct {
	Writer
	path    string
	hook    func(call int64) error
	calls   atomic.Int64
	mu      sync.Mutex
	durable []byte
}

func (w *hookWriter) Sync() error {
	if err := w.hook(w.calls.Add(1)); err != nil {
		return err
	}
	if err := w.Writer.Sync(); err != nil {
		return err
	}
	data, err := os.ReadFile(w.path)
	w.mu.Lock()
	w.durable = data
	w.mu.Unlock()
	return err
}

// durableRecords scans the file as the last successful fsync left it.
func (w *hookWriter) durableRecords() [][]byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	recs, _ := Scan(w.durable)
	return recs
}

func openHooked(t *testing.T, path string, hook func(call int64) error) (*Log, *hookWriter) {
	t.Helper()
	var hw *hookWriter
	l, _ := mustOpen(t, path, &Options{OpenWriter: func(p string) (Writer, error) {
		w, err := openWriterOS(p)
		if err != nil {
			return nil, err
		}
		hw = &hookWriter{Writer: w, path: p, hook: hook}
		return hw, nil
	}})
	return l, hw
}

// TestFailedSyncBreaksLog: a failed fsync leaves its frame in the file, and
// nothing says whether it reached the device. So the log refuses every later
// Append and Sync — a later fsync that succeeded would make the refused frame
// durable behind its caller's back — until a Reset rewrites it.
func TestFailedSyncBreaksLog(t *testing.T) {
	path := tmpLog(t)
	l, _ := openHooked(t, path, func(call int64) error {
		if call == 2 {
			return ErrInjected
		}
		return nil
	})
	if err := l.Commit([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit([]byte("refused")); !errors.Is(err, ErrInjected) {
		t.Fatalf("Commit over a failing fsync = %v, want ErrInjected", err)
	}
	if err := l.Append([]byte("later")); !errors.Is(err, ErrInjected) {
		t.Fatalf("Append after a failed fsync = %v, want the sticky ErrInjected", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Sync after a failed fsync = %v, want the sticky ErrInjected", err)
	}
	if err := l.Reset([]byte("seed")); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if err := l.Commit([]byte("after")); err != nil {
		t.Fatalf("Commit after Reset: %v", err)
	}
	l.Close()
	_, rec := mustOpen(t, path, nil)
	if len(rec.Records) != 2 || string(rec.Records[0]) != "seed" || string(rec.Records[1]) != "after" {
		t.Fatalf("recovered %q, want [seed after]", rec.Records)
	}
}

// TestFailedSyncFailsItsCohort: callers that appended while an fsync was in
// flight and queued behind it get its failure, not a fresh fsync of their
// own that would succeed.
func TestFailedSyncFailsItsCohort(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	l, _ := openHooked(t, tmpLog(t), func(call int64) error {
		if call == 1 {
			close(entered)
			<-release
			return ErrInjected
		}
		return nil
	})
	const cohort = 4
	errs := make(chan error, cohort)
	go func() { errs <- l.Commit([]byte("first")) }()
	<-entered
	for i := 1; i < cohort; i++ {
		go func() { errs <- l.Commit([]byte(fmt.Sprintf("queued-%d", i))) }()
	}
	for l.Records() < cohort {
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < cohort; i++ {
		if err := <-errs; !errors.Is(err, ErrInjected) {
			t.Fatalf("a caller of the failed cohort got %v, want ErrInjected", err)
		}
	}
}

// TestResetAcknowledgesOnlyADurableSeed: a Sync queued behind a Reset that
// dropped its frame returns only once the seed the Reset wrote is durable.
// The caller's record lives on in the seed (a checkpoint writes one carrying
// its effect), so either the record or the seed must be on the device when
// it is acknowledged.
func TestResetAcknowledgesOnlyADurableSeed(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	l, hw := openHooked(t, tmpLog(t), func(call int64) error {
		if call == 1 {
			close(entered)
			<-release
		}
		return nil
	})
	first := make(chan error, 1)
	go func() { first <- l.Commit([]byte("first")) }()
	<-entered
	if err := l.Append([]byte("queued")); err != nil {
		t.Fatal(err)
	}
	queued, reset := make(chan error, 1), make(chan error, 1)
	go func() { queued <- l.Sync() }()
	go func() { reset <- l.Reset([]byte("seed")) }()
	time.Sleep(20 * time.Millisecond) // both wait on the commit barrier
	close(release)
	if err := <-queued; err != nil {
		t.Fatal(err)
	}
	recs := hw.durableRecords()
	if len(recs) == 0 || (string(recs[len(recs)-1]) != "queued" && string(recs[len(recs)-1]) != "seed") {
		t.Fatalf("Sync acknowledged with %q durable, want the queued record or the seed last", recs)
	}
	for _, ch := range []chan error{first, reset} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
}

func TestAppendLimits(t *testing.T) {
	path := tmpLog(t)
	l, _ := mustOpen(t, path, nil)
	if err := l.Append(nil); err == nil {
		t.Fatal("Append(nil) succeeded, want error")
	}
	if err := l.Append(make([]byte, MaxRecord+1)); !errors.Is(err, errTooLarge) {
		t.Fatalf("oversized Append = %v, want errTooLarge", err)
	}
	l.Close()
	if err := l.Append([]byte("x")); !errors.Is(err, errClosed) {
		t.Fatalf("Append after Close = %v, want errClosed", err)
	}
}

// FuzzWALReplay throws arbitrary bytes at the frame scanner: it must never
// panic, every returned record must re-encode into a prefix of the input,
// and the good-bytes offset must be consistent with a rescan of the
// truncated file (recovery is idempotent).
func FuzzWALReplay(f *testing.F) {
	var clean []byte
	for _, p := range payloads(3) {
		clean = AppendFrame(clean, p)
	}
	f.Add(clean)
	f.Add(clean[:len(clean)-3])                       // torn payload
	f.Add(append(clean[:0:0], clean[:5]...))          // torn header
	f.Add(append(clean, make([]byte, 64)...))         // zero tail
	f.Add([]byte{})                                   // empty
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}) // absurd length
	corrupt := append([]byte(nil), clean...)
	corrupt[frameHeader+1] ^= 0x80
	f.Add(corrupt) // CRC mismatch in record 0

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, good := Scan(data)
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("goodBytes %d out of range [0,%d]", good, len(data))
		}
		var reenc []byte
		for _, r := range recs {
			reenc = AppendFrame(reenc, r)
		}
		if int64(len(reenc)) != good {
			t.Fatalf("re-encoded records span %d bytes, scanner accepted %d", len(reenc), good)
		}
		if !bytes.Equal(reenc, data[:good]) {
			t.Fatal("re-encoded records differ from accepted prefix")
		}
		// Idempotence: rescanning the truncated file is clean.
		recs2, good2 := Scan(data[:good])
		if good2 != good || len(recs2) != len(recs) {
			t.Fatalf("rescan = (%d records, %d bytes), first scan = (%d, %d)",
				len(recs2), good2, len(recs), good)
		}
	})
}
