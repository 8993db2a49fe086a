package wal

import (
	"errors"
	"io"
	"sync"
)

// ErrInjected is the failure FaultWriter reports once its budget is spent.
var ErrInjected = errors.New("wal: injected fault")

// FaultWriter wraps a Writer and fails (or short-writes) once a cumulative
// byte budget is exhausted — the fault-injection seam the torn-write drills
// are built on. With FailAt = N, the first N bytes pass through untouched;
// the write that crosses the boundary is truncated at it (a short write, the
// shape a crash mid-write leaves on disk) and every later write fails
// outright. FailSync additionally makes Sync fail once the budget is spent,
// modelling a device error at the commit barrier.
type FaultWriter struct {
	mu      sync.Mutex
	w       Writer
	failAt  int64
	written int64
	sync    bool
}

// NewFaultWriter wraps w so that writes fail after failAt cumulative bytes.
// failAt < 0 disables injection (pure pass-through). failSync extends the
// fault to Sync calls made after the budget is spent.
func NewFaultWriter(w Writer, failAt int64, failSync bool) *FaultWriter {
	return &FaultWriter{w: w, failAt: failAt, sync: failSync}
}

func (f *FaultWriter) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failAt < 0 {
		n, err := f.w.Write(p)
		f.written += int64(n)
		return n, err
	}
	budget := f.failAt - f.written
	if budget <= 0 {
		return 0, ErrInjected
	}
	if int64(len(p)) <= budget {
		n, err := f.w.Write(p)
		f.written += int64(n)
		return n, err
	}
	// Short write: only the bytes up to the boundary reach the file —
	// exactly what a crash mid-frame leaves behind.
	n, err := f.w.Write(p[:budget])
	f.written += int64(n)
	if err == nil {
		err = io.ErrShortWrite
	}
	return n, err
}

func (f *FaultWriter) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.sync && f.failAt >= 0 && f.written >= f.failAt {
		return ErrInjected
	}
	return f.w.Sync()
}

func (f *FaultWriter) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.w.Truncate(size); err != nil {
		return err
	}
	if f.written > size {
		f.written = size
	}
	return nil
}

func (f *FaultWriter) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.w.Close()
}
