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
// change one bit of its report. The final pass is the same computation
// with the whole series as the prefix and the final trust, checkpoint n,
// so it is pass n. The memo plane caches results per (product, pass), in
// two tiers per entry:
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
//     snapshot, keyed additionally by the trust records of the prefix's
//     raters — the prefix's ordinal column (EvalState.intern) indexes
//     them. The column is a function of the prefix too, so entries store
//     none, and neither do they store the outcome: an epoch's own marks,
//     which its fold counts are taken from, live in the product's causal
//     column, and the final pass's marks and Eq. 7 scores in its final
//     and scores rows (state.go).
//
// A trust-tier hit leaves the recorded marks as they are and runs
// nothing. A miss whose prefix matches (the common "only a shared rater's
// trust moved" case) reuses the signals tier and costs one Decide pass;
// the final pass also reuses the newest epoch's signals when its prefix is
// the whole series. Signals are shared between entries and Resumes and
// never written: Decide only reads them.
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
// construction — a hit keeps the exact recorded marks (final pass: and
// scores), and the signals are pure functions of (prefix, horizon,
// detector config) that Decide reads the same whether they are cached or
// fresh.

// prefixSignals is an entry's signals tier: the trust-free detector
// signals of one series prefix. The MC/HC/ME signals are keyed by the
// prefix alone; the H-/L-ARC signals were computed over the daily counts of
// [0, arcHi).
type prefixSignals struct {
	sig   detect.Signals
	arcHi float64
}

// memoEntry caches one product's outcome for one pass: the signals tier
// of its prefix plus the trust tier — the rater-scoped trust snapshot the
// pass's marks were decided under. Pass ep < n is epoch ep, whose prefix
// is [0, hi) and whose marks are the product's causal column over the
// epoch's own [lo, hi) ratings; pass n is the final pass, whose prefix is
// the whole series and whose marks and Eq. 7 scores are the product's
// final and scores rows (productState). The pass wrote them when it
// recorded or last hit the entry.
//
// An entry restored from an engine image (image.go) without the image's
// decisions is signals-only: it has no under, and its trust tier never
// hits.
type memoEntry struct {
	valid bool
	n     int            // ratings in the prefix when recorded
	pre   prefixSignals  // signals tier
	under *trust.Manager // checkpoint the entry was decided under
}

// productMemo is one product's cache: entry ep for each epoch ep of the
// horizon the state is bound to, then entry n for the final pass. Every
// entry was recorded against the product's current series (productState).
type productMemo []memoEntry

// drop invalidates every cached entry and returns how many were valid.
func (m productMemo) drop() uint64 {
	n := uint64(0)
	for i := range m {
		if m[i].valid {
			n++
		}
	}
	clear(m)
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

// hit reports whether the cached entry for pass ep can be replayed for
// the prefix whose ordinal column is ords under mgr: the marks the pass
// wrote stand. mgr must be a checkpoint: a hit rebinds the entry to it.
func (m productMemo) hit(ep int, ords []uint32, mgr *trust.Manager) bool {
	ent := &m[ep]
	if !ent.valid || ent.n != len(ords) || !trustRecordsMatch(mgr, ords, ent.under) {
		return false
	}
	ent.under = mgr
	return true
}

// signalReuse is what a trust-tier miss takes from the signals tier: a
// cached prefixSignals and which of its parts hold for the prefix and
// horizon being analyzed. completeSignals computes the rest.
type signalReuse struct {
	pre    prefixSignals
	series bool // the MC/HC/ME signals
	arc    bool // the H-/L-ARC signals
}

// signals looks up the signals tier for a trust-tier miss at pass ep on a
// prefix of n ratings ending at hi, in the newest valid entry at or before
// ep. For an epoch, only its own entry can match: an analyzed epoch has
// ratings of its own, so every earlier prefix is shorter. The final pass
// takes its own entry, else the newest epoch's (its prefix is the longest
// cached; it is the whole series when no rating lies past its epoch).
// Callers count the outcome (counters.countSignals).
func (m productMemo) signals(ep, n int, hi float64) signalReuse {
	var r signalReuse
	for ; ep >= 0; ep-- {
		if ent := &m[ep]; ent.valid {
			if ent.n == n {
				r.pre, r.series = ent.pre, true
				r.arc = math.Float64bits(ent.pre.arcHi) == math.Float64bits(hi)
			}
			break
		}
	}
	return r
}

// newEntry snapshots one product's analysis of the prefix whose ordinal
// column is ords for the memo: the prefix's signals tier and the
// checkpoint mgr it was decided under.
func newEntry(ords []uint32, pre prefixSignals, mgr *trust.Manager) memoEntry {
	return memoEntry{valid: true, n: len(ords), pre: pre, under: mgr}
}
