package service

import (
	"testing"

	"sparseroute/internal/demand"
	"sparseroute/internal/obs"
	"sparseroute/internal/wal"
)

// Well-framed records the engine must refuse, given that the hypercube the
// tests serve has 8 vertices and 12 edges and the base matrix is exactly
// {(0,7): 2}. They are the replay table's cases and the fuzz seed corpus.
var badRecords = []struct{ name, record string }{
	{"submit self pair", `{"seq":2,"op":"submit","entries":[{"u":3,"v":3,"amount":1}]}`},
	{"submit vertex out of range", `{"seq":2,"op":"submit","entries":[{"u":0,"v":99,"amount":1}]}`},
	{"submit negative vertex", `{"seq":2,"op":"submit","entries":[{"u":-1,"v":4,"amount":1}]}`},
	{"submit negative amount", `{"seq":2,"op":"submit","entries":[{"u":0,"v":7,"amount":-2}]}`},
	{"submit zero amount", `{"seq":2,"op":"submit","entries":[{"u":1,"v":6,"amount":1},{"u":0,"v":7,"amount":0}]}`},
	{"submit empty", `{"seq":2,"op":"submit"}`},
	{"patch self pair in clear", `{"seq":2,"op":"patch","clear":[{"u":5,"v":5}]}`},
	{"patch vertex out of range", `{"seq":2,"op":"patch","set":[{"u":0,"v":8,"amount":1}]}`},
	{"patch zero amount", `{"seq":2,"op":"patch","set":[{"u":0,"v":7,"amount":0}]}`},
	{"patch negative amount", `{"seq":2,"op":"patch","set":[{"u":2,"v":5,"amount":-1}]}`},
	{"patch empty", `{"seq":2,"op":"patch"}`},
	{"patch empties the matrix", `{"seq":2,"op":"patch","clear":[{"u":7,"v":0}]}`},
	{"unknown op", `{"seq":2,"op":"compact","fail":[1]}`},
	{"links edge out of range", `{"seq":2,"op":"links","fail":[12]}`},
	{"links negative capacity", `{"seq":2,"op":"links","caps":[{"edge":0,"capacity":-1}]}`},
}

// drawsFail0 is the record an older version logged for "fail 0" on seed 3's
// R 3 sample, with the paths its sampling passes drew: recovery draws for
// (0,5) and (1,4), widening for five single-survivor pairs.
const drawsFail0 = `{"seq":2,"op":"links","fail":[0],"draws":{"recover":[[0,2,8],[0,2,8],[0,2,8],[1,4,8],[1,4,8],[1,4,8]],"single":[[0,1],[0,1,5],[1,3,5],[1,3,5,6],[2,1,2]]}}`

// ignoredDraws are drawsFail0 and records that doctor its draws. Replay
// ignores draws, so each applies as the bare "fail 0" it carries.
var ignoredDraws = []struct{ name, record string }{
	{"draws as logged", drawsFail0},
	{"draws edge out of range", `{"seq":2,"op":"links","fail":[0],"draws":{"recover":[[0,2,99]]}}`},
	{"draws non-simple path", `{"seq":2,"op":"links","fail":[0],"draws":{"recover":[[0,2,9,9,8]]}}`},
	{"draws wrong endpoints", `{"seq":2,"op":"links","fail":[0],"draws":{"recover":[[0,2]]}}`},
	{"draws through a failed edge", `{"seq":2,"op":"links","fail":[0],"draws":{"single":[[0,0,3]]}}`},
}

// replayRecords frames the payloads, scans them back the way wal.Open does,
// and replays them into a fresh engine.
func replayRecords(t *testing.T, cfg Config, payloads ...string) (*Engine, *ReplayStats, error) {
	t.Helper()
	var raw []byte
	for _, p := range payloads {
		raw = wal.AppendFrame(raw, []byte(p))
	}
	records, good := wal.Scan(raw)
	if good != int64(len(raw)) || len(records) != len(payloads) {
		t.Fatalf("framing round trip: %d records, %d/%d bytes", len(records), good, len(raw))
	}
	e := testEngine(t, cfg)
	stats, err := e.ReplayWAL(&wal.Recovery{Records: records, GoodBytes: good})
	return e, stats, err
}

// skippedSeqs lists the sequence numbers replay journaled as refused.
func skippedSeqs(e *Engine) []uint64 {
	var seqs []uint64
	for _, ev := range e.Events() {
		if seq, ok := ev.Detail["seq"].(uint64); ok && ev.Type == obs.EventSolveFailure {
			seqs = append(seqs, seq)
		}
	}
	return seqs
}

// TestReplaySkipsInvalidRecords: a record with a good CRC that the accept
// path would refuse — a log left beside a smaller topology, corruption inside
// the payload — must be skipped and journaled with its sequence number, the
// records before and after it must still apply, and startup must go ahead.
// A link record's draws, however doctored, are no reason to refuse it: they
// are ignored, and the record applies.
func TestReplaySkipsInvalidRecords(t *testing.T) {
	const (
		base  = `{"seq":1,"op":"submit","entries":[{"u":0,"v":7,"amount":2}]}`
		after = `{"seq":3,"op":"patch","set":[{"u":1,"v":6,"amount":1}]}`
	)
	want := demand.New()
	want.Set(0, 7, 2)
	want.Set(1, 6, 1)

	check := func(t *testing.T, badSeq uint64, payloads ...string) {
		t.Helper()
		e, stats, err := replayRecords(t, Config{Seed: 3}, payloads...)
		if err != nil {
			t.Fatalf("ReplayWAL refused startup: %v", err)
		}
		if stats.Applied != 2 || stats.Skipped != 1 {
			t.Fatalf("applied=%d skipped=%d, want 2 and 1", stats.Applied, stats.Skipped)
		}
		if got := skippedSeqs(e); len(got) != 1 || got[0] != badSeq {
			t.Fatalf("journaled skipped seqs %v, want [%d]", got, badSeq)
		}
		if got := e.LastSubmitted(); !demand.Equal(got, want, 0) {
			t.Fatalf("replayed matrix %v, want %v", got, want)
		}
		if st := waitActive(t, e); !demand.Equal(st.Demand, want, 0) {
			t.Fatalf("re-solved matrix %v, want %v", st.Demand, want)
		}
	}
	for _, tc := range badRecords {
		t.Run(tc.name, func(t *testing.T) { check(t, 2, base, tc.record, after) })
	}
	t.Run("patch before any base", func(t *testing.T) {
		check(t, 1,
			`{"seq":1,"op":"patch","set":[{"u":1,"v":6,"amount":1}]}`,
			`{"seq":2,"op":"submit","entries":[{"u":0,"v":7,"amount":2}]}`,
			after)
	})
	live := testEngine(t, Config{Seed: 3})
	if _, err := live.FailEdges(0); err != nil {
		t.Fatal(err)
	}
	for _, tc := range ignoredDraws {
		t.Run(tc.name, func(t *testing.T) {
			e, stats, err := replayRecords(t, Config{Seed: 3}, base, tc.record, after)
			if err != nil || stats.Applied != 3 || stats.Skipped != 0 {
				t.Fatalf("replay %+v: %v, want all three records applied", stats, err)
			}
			if got := skippedSeqs(e); len(got) != 0 {
				t.Fatalf("journaled skipped seqs %v, want none", got)
			}
			if got := e.LastSubmitted(); !demand.Equal(got, want, 0) {
				t.Fatalf("replayed matrix %v, want %v", got, want)
			}
			if got, want := e.Hash(), live.Hash(); got != want {
				t.Fatalf("hash %016x, want the live %016x of fail 0", got, want)
			}
		})
	}
}

// FuzzReplayOps feeds arbitrary payloads, well framed, through replay between
// two good records: whatever the bytes say, ReplayWAL must return without a
// panic or an error and leave an engine that accepts the next submit.
func FuzzReplayOps(f *testing.F) {
	for _, tc := range badRecords {
		f.Add([]byte(tc.record))
	}
	for _, tc := range ignoredDraws {
		f.Add([]byte(tc.record))
	}
	f.Add([]byte(`{"seq":2,"op":"links","fail":[0,1,2],"restore":[1],"caps":[{"edge":5,"capacity":0.5}]}`))
	f.Add([]byte(`{"seq":2,"op":"links","replace":true,"fail":[0,1,2,3,4,5,6,7,8,9,10,11]}`))
	f.Add([]byte(`{"seq":2,"op":"links","fail":[0],"caps":[{"edge":9,"capacity":0.1}],"draws":{"recover":[[0,2,8]],"single":[[0,1]],"headroom":[[2,6,11]]}}`))
	f.Add([]byte(`{"seq":2,"op":"revoke","ref":1}`))
	f.Add([]byte(`{"seq":18446744073709551615,"op":"submit","entries":[{"u":2,"v":5,"amount":1e300}]}`))
	f.Add([]byte(`{"seq":"two"}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) == 0 || len(payload) > wal.MaxRecord {
			t.Skip() // not a frame the log can hold
		}
		e, _, err := replayRecords(t, Config{Seed: 3, R: 2},
			`{"seq":1,"op":"submit","entries":[{"u":0,"v":7,"amount":2}]}`,
			string(payload),
			`{"seq":3,"op":"patch","set":[{"u":1,"v":6,"amount":1}]}`)
		if err != nil {
			t.Fatalf("ReplayWAL refused startup on payload %q: %v", payload, err)
		}
		d := demand.New()
		d.Set(2, 5, 1)
		if _, err := e.submit(d); err != nil {
			t.Fatalf("submit after replaying payload %q: %v", payload, err)
		}
	})
}
