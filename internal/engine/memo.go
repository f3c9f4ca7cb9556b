package engine

import (
	"math"

	"repro/internal/detect"
	"repro/internal/trust"
)

// The memo plane.
//
// Procedure 1 freezes rater trust within each 30-day epoch, so a product's
// per-epoch detector report — and therefore its per-rater (observed,
// suspicious) counts — is a pure function of exactly two inputs:
//
//	(series prefix [0, hi), epoch-start trust restricted to the prefix's raters)
//
// The restriction is what makes the key cheap and product-local: the only
// trust consumer in the detector stack is the MC segment test inside
// detect.Decide, which averages trust over raters appearing in the
// analyzed series, so trust churn on raters a product never saw cannot
// change one bit of its report. The memo plane caches results per
// (product, epoch) and for the final pass, in two tiers per entry:
//
//   - The signals tier (prefixSignals) holds what the detectors compute
//     without trust: detect.Signals (MC segments, HC and ME windows, H-/L-ARC
//     peak days, segments and thresholds; no curves). The MC/HC/ME part is
//     keyed by the series prefix alone. A product's memo only holds entries
//     recorded against its current series header (intern drops them all
//     when the header changes), so the prefix length identifies the
//     prefix. The ARC part is additionally keyed by the horizon hi,
//     because its daily counts span [0, hi).
//   - The trust tier holds the outcome of detect.Decide under one trust
//     snapshot: the epoch's own marks, which its fold counts are taken
//     from and which live in the product's causal column (state.go; final
//     pass: the entry's marks and scores), keyed additionally by the trust
//     records of the prefix's raters — the prefix's ordinal column
//     (EvalState.intern) indexes them. The column is a function of the
//     prefix too, so entries store none.
//
// A trust-tier hit replays the recorded marks and runs nothing. A miss
// whose prefix matches (the common "only a shared rater's trust moved"
// case) reuses the signals tier and costs one Decide pass; the final pass
// also reuses the newest epoch's signals when its prefix is the whole
// series. Signals are shared between entries and Resumes and never
// written: Decide only reads them.
//
// A trust hit proves the raters' records under the trust the entry was
// decided under equal the live trust. That trust is a checkpoint, which is
// never written, so an entry points at it instead of copying records, and
// a probe against that same checkpoint hits at once. Any other probe
// compares the records bit for bit, stopping at the first difference; no
// hash stands in for them. A hit rebinds the entry to the live checkpoint
// it was just proven equal to, so entries that keep hitting never pin
// superseded checkpoints and the next probe against it is the O(1) one.
// Every hit is verified one of these two ways. Bit-exactness is then by
// construction — a hit replays the exact recorded marks (final pass: the
// cached marks and scores themselves), and the signals are pure
// functions of (prefix, horizon, detector config) that Decide reads the
// same whether they are cached or fresh.

// prefixSignals is an entry's signals tier: the trust-free detector
// signals of one series prefix. The MC/HC/ME signals are keyed by the
// prefix alone; the H-/L-ARC signals were computed over the daily counts of
// [0, arcHi).
type prefixSignals struct {
	sig   detect.Signals
	arcHi float64
}

// memoEntry caches one product's outcome for one epoch: the signals tier
// of its prefix plus the trust tier — the rater-scoped trust snapshot that
// the marks of the epoch's own [lo, hi) ratings were decided under. The
// marks themselves are the product's causal column over [lo, hi), which
// the epoch wrote when it recorded or last hit the entry.
type memoEntry struct {
	valid     bool
	prefixLen int            // ratings in [0, hi) when recorded
	pre       prefixSignals  // signals tier
	under     *trust.Manager // epoch-start trust checkpoint the entry was decided under
}

// finalEntry caches one product's uncheckpointed final pass (stages 3+4):
// the full series' signals tier and, against the *final* trust, its marks
// and Eq. 7 scores. Its key is the series length n.
//
// An entry restored from an engine image (image.go) without the image's
// decisions, epoch or final, is signals-only: it has no under and no
// marks, and its trust tier never hits.
type finalEntry struct {
	valid  bool
	n      int
	pre    prefixSignals
	under  *trust.Manager // final trust the entry was decided under
	marks  []bool
	scores []float64
}

// productMemo is one product's cache: one entry per epoch of the horizon
// the state is bound to, and the final-pass entry. Every entry was recorded
// against the product's current series (productState).
type productMemo struct {
	epochs []memoEntry
	final  finalEntry
}

// drop invalidates every cached entry and returns how many were valid.
func (m *productMemo) drop() uint64 {
	n := uint64(0)
	for i := range m.epochs {
		if m.epochs[i].valid {
			n++
		}
	}
	clear(m.epochs)
	if m.final.valid {
		n++
	}
	m.final = finalEntry{}
	return n
}

// trustRecordsMatch is the trust-tier key compare: each rater's record
// under the entry's trust must equal the live manager's bit for bit. The
// same checkpoint holds the same records, since checkpoints are never
// written.
//
//lint:hotpath
func trustRecordsMatch(mgr *trust.Manager, raters []uint32, under *trust.Manager) bool {
	if mgr == under {
		return true
	}
	if under == nil {
		return false // a signals-only entry
	}
	for _, o := range raters {
		rec, was := mgr.RecordAt(o), under.RecordAt(o)
		if math.Float64bits(rec.S) != math.Float64bits(was.S) ||
			math.Float64bits(rec.F) != math.Float64bits(was.F) {
			return false
		}
	}
	return true
}

// epochHit reports whether the cached entry for epoch ep can be replayed
// for the prefix whose ordinal column is ords under mgr: the causal
// column's marks for the epoch stand. mgr must be a checkpoint: a hit
// rebinds the entry to it.
func (m *productMemo) epochHit(ep int, ords []uint32, mgr *trust.Manager) bool {
	ent := &m.epochs[ep]
	if !ent.valid || ent.prefixLen != len(ords) || !trustRecordsMatch(mgr, ords, ent.under) {
		return false
	}
	ent.under = mgr
	return true
}

// finalHit is epochHit for the final pass: on a hit it returns the cached
// suspicious marks and scores themselves. Nothing writes them once
// recorded, so every Result that hands them out shares them read-only.
func (m *productMemo) finalHit(ords []uint32, mgr *trust.Manager) ([]bool, []float64, bool) {
	ent := &m.final
	if !ent.valid || ent.n != len(ords) || !trustRecordsMatch(mgr, ords, ent.under) {
		return nil, nil, false
	}
	ent.under = mgr
	return ent.marks, ent.scores, true
}

// signalReuse is what a trust-tier miss takes from the signals tier: a
// cached prefixSignals and which of its parts hold for the prefix and
// horizon being analyzed. completeSignals computes the rest.
type signalReuse struct {
	pre    prefixSignals
	series bool // the MC/HC/ME signals
	arc    bool // the H-/L-ARC signals
}

// reuseSignals is the signals-tier lookup behind a trust-tier miss on a
// prefix of n ratings at horizon hi, against a cached tier of prefixLen
// ratings (ok = false when there is none). Callers count the outcome
// (counters.countSignals).
func reuseSignals(ok bool, prefixLen, n int, pre prefixSignals, hi float64) signalReuse {
	var r signalReuse
	if ok && prefixLen == n {
		r.pre, r.series = pre, true
		r.arc = math.Float64bits(pre.arcHi) == math.Float64bits(hi)
	}
	return r
}

// epochSignals looks up the signals tier for a trust-tier miss at epoch ep
// on a prefix of n ratings ending at hi. Only the epoch's own entry can
// match: an analyzed epoch has ratings of its own, so every earlier prefix
// is shorter.
func (m *productMemo) epochSignals(ep, n int, hi float64) signalReuse {
	ent := &m.epochs[ep]
	return reuseSignals(ent.valid, ent.prefixLen, n, ent.pre, hi)
}

// finalSignals looks up the signals tier for a final-pass miss on the
// whole series of n ratings at the dataset horizon: the final entry's own
// tier, else the newest epoch entry's (its prefix is the longest cached;
// it is the whole series when no rating lies past its epoch).
func (m *productMemo) finalSignals(n int, horizon float64) signalReuse {
	if ent := &m.final; ent.valid && ent.n == n {
		return reuseSignals(true, n, n, ent.pre, horizon)
	}
	for ep := len(m.epochs) - 1; ep >= 0; ep-- {
		if ent := &m.epochs[ep]; ent.valid {
			return reuseSignals(true, ent.prefixLen, n, ent.pre, horizon)
		}
	}
	return reuseSignals(false, 0, n, prefixSignals{}, horizon)
}

// newEpochEntry snapshots one product's epoch analysis of the prefix whose
// ordinal column is ords for the memo: the prefix's signals tier and the
// epoch-start checkpoint mgr it was decided under.
func newEpochEntry(ords []uint32, pre prefixSignals, mgr *trust.Manager) memoEntry {
	return memoEntry{valid: true, prefixLen: len(ords), pre: pre, under: mgr}
}

// newFinalEntry records one product's final pass: the series' signals
// tier, the final trust mgr and the marks and scores decided under it,
// the very slices the pass hands out.
func newFinalEntry(pre prefixSignals, mgr *trust.Manager, marks []bool, scores []float64) finalEntry {
	return finalEntry{
		valid:  true,
		n:      len(marks),
		pre:    pre,
		under:  mgr,
		marks:  marks,
		scores: scores,
	}
}
