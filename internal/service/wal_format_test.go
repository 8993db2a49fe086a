package service

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sparseroute/internal/demand"
	"sparseroute/internal/wal"
)

// TestWALRecordBytesGolden pins the on-disk format: the exact record bytes
// the engine logs for each mutation kind. A log written by one version must
// replay under the next, so a change to these bytes is a format change and
// needs a migration story, not a quiet edit to this test. A link record
// carries the event's inputs only: older versions appended the paths the
// event's sampling passes drew as "draws", which replay now ignores.
func TestWALRecordBytesGolden(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "golden.wal")
	e, log, _ := walEngine(t, walPath, Config{Seed: 1})

	d := demand.New()
	d.Set(7, 0, 2) // canonicalized to (0,7)
	d.Set(1, 6, 1.5)
	submitAndWait(t, e, d)
	// A patch record keeps the caller's endpoint order.
	if _, err := e.patch([]PairAmount{{U: 6, V: 1, Amount: 3}}, []PairRef{{U: 0, V: 7}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.FailEdges(2); err != nil {
		t.Fatal(err)
	}
	if _, err := e.updateLinks([]int{5}, []int{2}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.setCapacity(7, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := e.setLinkState([]int{3}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RestoreEdges(3); err != nil {
		t.Fatal(err)
	}
	// The engine no longer writes revoke records, but replay still honours
	// the ones older versions wrote: pin their encoding.
	revoke, err := json.Marshal(&walOp{Seq: 8, Op: walOpRevoke, Ref: 2})
	if err != nil {
		t.Fatal(err)
	}
	// No public call logs fail, restore and caps in one record, but the
	// format allows it and replay interprets it: pin its encoding too.
	combined, err := json.Marshal(&walOp{Seq: 9, Op: walOpLinks,
		Fail: []int{1}, Restore: []int{2}, Caps: []EdgeCapacity{{Edge: 3, Capacity: 0.25}}})
	if err != nil {
		t.Fatal(err)
	}
	// A failure and a brownout in one record.
	widened, err := json.Marshal(&walOp{Seq: 10, Op: walOpLinks, Fail: []int{2},
		Caps: []EdgeCapacity{{Edge: 7, Capacity: 0.25}}})
	if err != nil {
		t.Fatal(err)
	}

	e.Close()
	log.Close()
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	records, good := wal.Scan(raw)
	if good != int64(len(raw)) {
		t.Fatalf("log has a bad frame at %d of %d bytes", good, len(raw))
	}
	got := make([]string, 0, len(records)+3)
	for _, r := range records {
		got = append(got, string(r))
	}
	got = append(got, string(revoke), string(combined), string(widened))

	want := []string{
		`{"seq":1,"op":"submit","entries":[{"u":0,"v":7,"amount":2},{"u":1,"v":6,"amount":1.5}]}`,
		`{"seq":2,"op":"patch","set":[{"u":6,"v":1,"amount":3}],"clear":[{"u":0,"v":7}]}`,
		`{"seq":3,"op":"links","fail":[2]}`,
		`{"seq":4,"op":"links","fail":[5],"restore":[2]}`,
		`{"seq":5,"op":"links","caps":[{"edge":7,"capacity":0.5}]}`,
		`{"seq":6,"op":"links","fail":[3],"replace":true}`,
		`{"seq":7,"op":"links","restore":[3]}`,
		`{"seq":8,"op":"revoke","ref":2}`,
		`{"seq":9,"op":"links","fail":[1],"restore":[2],"caps":[{"edge":3,"capacity":0.25}]}`,
		`{"seq":10,"op":"links","fail":[2],"caps":[{"edge":7,"capacity":0.25}]}`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("record bytes changed:\ngot  %s\nwant %s", strings.Join(got, "\n     "), strings.Join(want, "\n     "))
	}
}

// TestLiveAcceptEqualsReplay feeds one op list through the live accept path
// and, framed as a log, through ReplayWAL: the two engines must end in the
// same demand matrix, link state and path-system hash, and the records the
// live path refuses must be exactly the records replay skips.
func TestLiveAcceptEqualsReplay(t *testing.T) {
	entry := func(u, v int, a float64) PairAmount { return PairAmount{U: u, V: v, Amount: a} }
	lists := map[string][]walOp{
		"demand only": {
			{Op: walOpSubmit, Entries: []PairAmount{entry(0, 7, 2), entry(1, 6, 1)}},
			{Op: walOpPatch, Set: []PairAmount{entry(6, 1, 3), entry(2, 5, 1)}, Clear: []PairRef{{U: 7, V: 0}}},
			{Op: walOpPatch, Set: []PairAmount{entry(2, 5, 4)}},
		},
		"links interleaved": {
			{Op: walOpSubmit, Entries: []PairAmount{entry(0, 7, 2), entry(3, 4, 1)}},
			{Op: walOpLinks, Fail: []int{0, 1, 2}},
			{Op: walOpPatch, Set: []PairAmount{entry(1, 6, 2)}},
			{Op: walOpLinks, Fail: []int{4}, Restore: []int{1}, Caps: []EdgeCapacity{{Edge: 9, Capacity: 0.5}, {Edge: 2, Capacity: 1}}},
			{Op: walOpLinks, Fail: []int{4}}, // no-op: no version bump on either side
			{Op: walOpSubmit, Entries: []PairAmount{entry(2, 5, 1)}},
			{Op: walOpLinks, Fail: []int{6}, Replace: true},
		},
		"refused records": {
			{Op: walOpPatch, Set: []PairAmount{entry(0, 7, 1)}}, // no base yet
			{Op: walOpSubmit, Entries: []PairAmount{entry(0, 7, 2)}},
			{Op: walOpSubmit, Entries: []PairAmount{entry(0, 8, 2)}},
			{Op: walOpSubmit, Entries: []PairAmount{entry(4, 4, 2)}},
			{Op: walOpPatch, Clear: []PairRef{{U: 0, V: 7}}},
			{Op: walOpPatch, Set: []PairAmount{entry(1, 6, math.Inf(1))}},
			{Op: walOpLinks, Fail: []int{12}},
			{Op: walOpLinks, Caps: []EdgeCapacity{{Edge: 1, Capacity: -0.5}}},
			{Op: walOpPatch, Set: []PairAmount{entry(1, 6, 1)}},
		},
	}
	for name, ops := range lists {
		t.Run(name, func(t *testing.T) {
			cfg := Config{Seed: 5}
			live := testEngine(t, cfg)
			var payloads []string
			refused := 0
			for i, op := range ops {
				op.Seq = uint64(i + 1)
				// An infinite amount cannot even be framed: the live path must
				// refuse it, and replay never sees it.
				buf, unframed := json.Marshal(&op)
				if unframed == nil {
					payloads = append(payloads, string(buf))
				}
				var err error
				if op.Op == walOpLinks {
					_, err = live.applyLinkEvent(&op)
				} else {
					_, err = live.acceptDemand(context.Background(), &op)
				}
				switch {
				case err == nil && unframed != nil:
					t.Fatalf("op %d: live err %v, framing err %v", op.Seq, err, unframed)
				case err != nil && unframed == nil:
					refused++
				}
			}

			replayed, stats, err := replayRecords(t, cfg, payloads...)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Skipped != refused || stats.Applied+stats.Skipped != len(payloads) {
				t.Fatalf("replay applied %d and skipped %d of %d records; live refused %d of them",
					stats.Applied, stats.Skipped, len(payloads), refused)
			}
			if got, want := replayed.LastSubmitted(), live.LastSubmitted(); !demand.Equal(got, want, 0) {
				t.Fatalf("demand matrix: replay %v, live %v", got, want)
			}
			if got, want := linksOf(replayed), linksOf(live); !reflect.DeepEqual(got, want) {
				t.Fatalf("link state: replay %+v, live %+v", got, want)
			}
			if got, want := replayed.Hash(), live.Hash(); got != want {
				t.Fatalf("path-system hash: replay %016x, live %016x", got, want)
			}
		})
	}
}

// TestApplyDemandOpRefusesWithoutTouchingBase covers what JSON cannot carry
// into a log (NaN, infinities) and the interpreter's purity: a refused record
// returns no matrix and never modifies the base it was applied to.
func TestApplyDemandOpRefusesWithoutTouchingBase(t *testing.T) {
	base := demand.New()
	base.Set(0, 7, 2)
	for _, op := range []walOp{
		{Op: walOpSubmit, Entries: []PairAmount{{U: 0, V: 7, Amount: math.NaN()}}},
		{Op: walOpSubmit, Entries: []PairAmount{{U: 0, V: 7, Amount: math.Inf(1)}}},
		{Op: walOpPatch, Set: []PairAmount{{U: 1, V: 6, Amount: 1}, {U: 0, V: 7, Amount: math.NaN()}}},
		{Op: walOpPatch, Set: []PairAmount{{U: 1, V: 6, Amount: 1}}, Clear: []PairRef{{U: 3, V: 3}}},
		{Op: walOpPatch, Clear: []PairRef{{U: 7, V: 0}}},
	} {
		next, touched, err := applyDemandOp(base, &op, 8)
		if err == nil || next != nil || touched != nil {
			t.Fatalf("%+v: next=%v touched=%v err=%v, want a bare refusal", op, next, touched, err)
		}
		if base.SupportSize() != 1 || base.Get(0, 7) != 2 {
			t.Fatalf("%+v modified its base: %v", op, base)
		}
	}
	if _, _, err := applyDemandOp(nil, &walOp{Op: walOpPatch, Set: []PairAmount{{U: 0, V: 7, Amount: 1}}}, 8); !errors.Is(err, errNoBaseDemand) {
		t.Fatalf("patch without a base: %v, want errNoBaseDemand", err)
	}
	next, touched, err := applyDemandOp(base, &walOp{Op: walOpPatch,
		Set: []PairAmount{{U: 6, V: 1, Amount: 1}, {U: 1, V: 6, Amount: 3}}, Clear: []PairRef{{U: 7, V: 0}}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if next.SupportSize() != 1 || next.Get(1, 6) != 3 {
		t.Fatalf("patched matrix %v, want {(1,6): 3}", next)
	}
	if want := []demand.Pair{{U: 1, V: 6}, {U: 0, V: 7}}; !reflect.DeepEqual(touched, want) {
		t.Fatalf("touched %v, want %v (each named pair once, in record order)", touched, want)
	}
}
