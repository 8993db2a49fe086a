package service

import "context"

// PairAmount is one per-pair mutation of a demand patch: set d(U,V) = Amount.
// It is also a submit record's entry on the WAL wire.
type PairAmount struct {
	U      int     `json:"u"`
	V      int     `json:"v"`
	Amount float64 `json:"amount"`
}

// PairRef names one demand pair of a patch's clear list.
type PairRef struct {
	U int `json:"u"`
	V int `json:"v"`
}

// PatchDemandCtx merges per-pair deltas into the last submitted matrix and
// hands the result to the solver as the next epoch: entries in set are
// assigned, pairs in clear are removed, every other pair keeps its
// last-submitted amount.
// The touched pairs ride along with the epoch so the solver can take the
// incremental delta path (re-scoring only their paths) when the link state
// still matches the previous solve.
//
// It returns errNoBaseDemand before any successful submit (a delta needs a
// base), errClosed/ErrRateLimited like SubmitDemandCtx, and a validation
// error for self-pairs, out-of-range endpoints, non-finite amounts, or a
// patch that would clear the whole matrix — the record is checked whole
// before anything is merged (see applyDemandOp), so a rejected patch changes
// nothing. ctx is checked as SubmitDemandCtx checks it: a done ctx returns
// ctx.Err() before admission, with nothing logged; an accepted patch is
// solved or superseded regardless of what happens to ctx afterwards.
func (e *Engine) PatchDemandCtx(ctx context.Context, set []PairAmount, clear []PairRef) (uint64, error) {
	return e.acceptDemand(ctx, &walOp{Op: walOpPatch, Set: set, Clear: clear})
}
