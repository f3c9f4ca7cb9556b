package engine

import (
	"repro/internal/dataset"
	"repro/internal/epoch"
	"repro/internal/trust"
)

// EvalState is the engine's checkpointable state: a trust snapshot at every
// completed epoch boundary. checkpoints[e] is rater trust at the *start* of
// epoch e — i.e. after folding epochs [0, e) — so checkpoints[0] is the
// empty manager and, once an evaluation has run, the last element is the
// final trust. A state is bound to one dataset identity (product set +
// horizon); Resume resets it transparently if either changes.
//
// An EvalState is not safe for concurrent use; callers (internal/server)
// serialize Resume/Invalidate under their own lock.
//
// Beyond the checkpoints the state carries the memo plane (see memo.go):
// per-product caches of epoch folds and final-pass reports, plus the
// bookkeeping that lets a Resume prove "the trust feeding epoch e is
// unchanged since e last ran" without comparing managers:
//
//   - folds[e] is the canonical per-rater fold the last *completed* run of
//     epoch e produced (nil if e never completed). Comparing the fresh fold
//     against it detects "identical fold ⇒ outgoing trust unchanged".
//   - trustSame[e] means checkpoint e's trust content equals the incoming
//     trust of the last completed run of epoch e — i.e. every memo entry
//     recorded at epoch e is keyed against the *current* checkpoint, so
//     epoch e may skip even the rater-scoped fingerprint work. trustSame is
//     deliberately NOT truncated by Invalidate: it describes the epochs'
//     last completed runs, which invalidation does not rewrite.
//   - finalConsistent is trustSame for the uncheckpointed final pass:
//     the final entries were recorded under the current final trust.
type EvalState struct {
	horizon     float64
	products    []string
	checkpoints []*trust.Manager

	// published[e] is period e's causal score per product, written with
	// checkpoints[e+1]: rows before a resume epoch are reused, later ones
	// rewritten, so Invalidate need not touch them.
	published [][]float64

	memo            map[string]*productMemo
	folds           [][]raterFold // one per epoch
	trustSame       []bool        // one per epoch boundary (len = epochs+1)
	finalConsistent bool
}

// NewState returns an empty state; the first Resume evaluates from scratch.
func NewState() *EvalState { return &EvalState{} }

// CompletedEpochs reports how many trust epochs are checkpointed (0 for a
// fresh or fully invalidated state).
func (st *EvalState) CompletedEpochs() int {
	if len(st.checkpoints) == 0 {
		return 0
	}
	return len(st.checkpoints) - 1
}

// Invalidate drops every checkpoint at or after the epoch containing day:
// a rating added (or removed) on that day changes the epoch's per-rater
// counts, and through the trust fold every later epoch. Earlier epochs are
// untouched — their folds depend only on ratings strictly before the
// epoch boundary. Invalidating an already-invalid state is a no-op.
func (st *EvalState) Invalidate(day float64) {
	if len(st.checkpoints) == 0 {
		return
	}
	e := epoch.PeriodOf(day, st.horizon)
	if e+1 < len(st.checkpoints) {
		// Drop references so the trust snapshots can be collected.
		for i := e + 1; i < len(st.checkpoints); i++ {
			st.checkpoints[i] = nil
		}
		st.checkpoints = st.checkpoints[:e+1]
	}
}

// Matches reports whether the state's checkpoints were computed for this
// dataset identity (bit-identical horizon, same product list in the same
// order). The identity is content-based, not pointer-based: a combined
// dataset rebuilt from per-shard partitions on every coordinator cut
// (internal/store) still matches, so Resume keeps reusing checkpoints
// across rebuilds.
func (st *EvalState) Matches(d *dataset.Dataset) bool {
	return st.matches(d)
}

// matches reports whether the state's checkpoints were computed for this
// dataset identity.
func (st *EvalState) matches(d *dataset.Dataset) bool {
	//lint:ignore floateq dataset-identity check: checkpoints are only valid for the bit-identical horizon, so exact comparison is the contract
	if len(st.checkpoints) == 0 || st.horizon != d.HorizonDays || len(st.products) != len(d.Products) {
		return false
	}
	for i, p := range d.Products {
		if st.products[i] != p.ID {
			return false
		}
	}
	return true
}

// reset rebinds the state to the dataset and discards all checkpoints and
// memo state.
func (st *EvalState) reset(d *dataset.Dataset) {
	st.horizon = d.HorizonDays
	st.products = d.ProductIDs()
	st.checkpoints = []*trust.Manager{trust.NewManager()}
	n := epoch.Periods(d.HorizonDays)
	st.published = make([][]float64, n)
	st.memo = make(map[string]*productMemo, len(d.Products))
	st.folds = make([][]raterFold, n)
	st.trustSame = make([]bool, n+1)
	// Epoch 0's incoming trust is always the empty manager, so checkpoint 0
	// trivially equals whatever epoch 0 last ran against.
	st.trustSame[0] = true
	st.finalConsistent = false
}
