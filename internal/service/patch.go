package service

import "context"

// PairAmount is one per-pair mutation of a demand patch: set d(U,V) = Amount.
type PairAmount struct {
	U, V   int
	Amount float64
}

// PairRef names one demand pair of a patch's clear list.
type PairRef struct {
	U, V int
}

// PatchDemand merges per-pair deltas into the last submitted matrix and
// hands the result to the solver as the next epoch: entries in set are
// assigned, pairs in clear are removed, every other pair keeps its
// last-submitted amount.
// The touched pairs ride along with the epoch so the solver can take the
// incremental delta path (re-scoring only their paths) when the link state
// still matches the previous solve.
//
// It returns ErrNoBaseDemand before any successful SubmitDemand (a delta
// needs a base), ErrClosed/ErrRateLimited like SubmitDemand, and a
// validation error for self-pairs, out-of-range endpoints, non-finite
// amounts, or a patch that would clear the whole matrix — the record is
// checked whole before anything is merged (see applyDemandOp), so a rejected
// patch changes nothing.
func (e *Engine) PatchDemand(set []PairAmount, clear []PairRef) (uint64, error) {
	return e.PatchDemandCtx(context.Background(), set, clear)
}

// PatchDemandCtx is PatchDemand for a caller with a context (see
// SubmitDemandCtx): a done ctx returns ctx.Err() before admission, with
// nothing logged; an accepted patch is solved or superseded regardless of
// what happens to ctx afterwards.
func (e *Engine) PatchDemandCtx(ctx context.Context, set []PairAmount, clear []PairRef) (uint64, error) {
	op := &walOp{Op: walOpPatch}
	for _, s := range set {
		op.Set = append(op.Set, walAmount(s))
	}
	for _, c := range clear {
		op.Clear = append(op.Clear, walPair(c))
	}
	return e.acceptDemand(ctx, op, false)
}
