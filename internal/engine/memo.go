package engine

import (
	"math"
	"slices"
	"strings"

	"repro/internal/dataset"
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
//     peak days, segments and thresholds; no curves) and the prefix's
//     sorted raters. Raters and the MC/HC/ME part are keyed by the series
//     prefix alone — the product's monotone content Version (maintained
//     incrementally by internal/store on every applied submit; no
//     rehashing) plus the prefix length. The ARC part is additionally
//     keyed by the horizon hi, because its daily counts span [0, hi).
//   - The trust tier holds the outcome of detect.Decide under one trust
//     snapshot: the fold counts and marks (final pass: marks and scores),
//     keyed additionally by a rater-scoped trust fingerprint, an FNV-1a
//     hash over the prefix's sorted raters and their trust records.
//
// A trust-tier hit replays the cached fold and runs nothing. A miss whose
// prefix matches (the common "only a shared rater's trust moved" case)
// reuses the signals tier and costs one Decide pass; the final pass also
// reuses the newest epoch's signals when its prefix is the whole series.
// Signals are shared between entries and Resumes and never written:
// Decide only reads them.
//
// A trust hit is never served on fingerprint equality alone: the cached
// records are compared bit-for-bit against the live manager first (the
// cache verifies, it never trusts the hash blindly), so a 64-bit collision
// can cost a miss but never a wrong answer. Bit-exactness is then by
// construction — a hit replays the exact cached fold (final pass: copies
// of the cached marks and scores), and the signals are pure functions of
// (prefix, horizon, detector config) that Decide reads exactly as
// detect.AnalyzeWith would.

// FNV-1a 64-bit parameters, inlined so the fingerprint hot paths stay
// dependency- and allocation-free.
const (
	memoFNVOffset uint64 = 14695981039346656037
	memoFNVPrime  uint64 = 1099511628211
)

// memoFPMask post-masks trust fingerprints before they are compared.
// Production value is all-ones (full 64-bit compare); tests shrink it to
// force collisions and prove the verify step keeps colliding entries from
// ever being served (see TestFingerprintCollisionNeverServed).
var memoFPMask = ^uint64(0)

// raterFold is one rater's in-epoch fold contribution in canonical
// (sorted-by-rater) form: n ratings observed in the epoch, f of them marked
// suspicious.
type raterFold struct {
	rater string
	n, f  int
}

// prefixSignals is an entry's signals tier: the trust-free facts about one
// series prefix — its sorted unique raters and its detector signals.
// Raters and the MC/HC/ME signals are keyed by the prefix alone; the
// H-/L-ARC signals were computed over the daily counts of [0, arcHi).
type prefixSignals struct {
	raters []string
	sig    detect.Signals
	arcHi  float64
}

// memoEntry caches one product's outcome for one epoch: the signals tier
// of its prefix plus the trust tier — the per-rater fold counts the
// epoch's analysis produced and the marks of the epoch's own [lo, hi)
// ratings, keyed by the rater-scoped trust snapshot they were decided
// under.
type memoEntry struct {
	valid     bool
	prefixLen int            // ratings in [0, hi) when recorded
	seriesFP  uint64         // seriesFingerprint(version, prefixLen) at record time
	pre       prefixSignals  // signals tier
	trustFP   uint64         // trustFingerprint over pre.raters at record time
	recs      []trust.Record // their records at the epoch start, aligned with pre.raters
	counts    []raterFold    // the cached fold result (canonical order)
	marks     []bool         // marks of the epoch's [lo, hi) ratings
}

// finalEntry caches one product's uncheckpointed final pass (stages 3+4):
// the full series' signals tier and, against the *final* trust, its marks
// and Eq. 7 scores.
type finalEntry struct {
	valid    bool
	seriesFP uint64
	pre      prefixSignals
	trustFP  uint64
	recs     []trust.Record
	marks    []bool // never aliased by served results
	scores   []float64
}

// productMemo is one product's cache: the series version the entries were
// recorded against, one entry per epoch, and the final-pass entry.
type productMemo struct {
	version uint64
	epochs  []memoEntry
	final   finalEntry
}

// memoFor returns (creating if needed) the product's memo, synchronizing it
// with the product's current series version. A version change means the
// series content changed, so every cached entry keyed on the old version is
// dropped wholesale — that is the O(changed product) invalidation path. A
// product with Version 0 is unversioned (its mutator does not maintain the
// counter), so it bypasses the memo: its entries are dropped the same way
// and its memo deleted, so none survives to be replayed if the product
// later returns at its old version, and memoFor returns nil.
func (st *EvalState) memoFor(p *dataset.Product) *productMemo {
	m := st.memo[p.ID]
	if m != nil && m.version != p.Version {
		st.stats.memoInvalidated.Add(m.drop())
		m.version = p.Version
	}
	switch {
	case p.Version == 0:
		delete(st.memo, p.ID)
		return nil
	case m == nil:
		m = &productMemo{version: p.Version, epochs: make([]memoEntry, len(st.folds))}
		st.memo[p.ID] = m
	}
	return m
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

// setEpoch commits a fresh entry for epoch ep (no-op out of range, which
// cannot happen for states reset against the same horizon).
func (m *productMemo) setEpoch(ep int, ent memoEntry) {
	if ep < len(m.epochs) {
		m.epochs[ep] = ent
	}
}

// seriesFingerprint keys a series prefix: the product's monotone content
// version mixed with the prefix length. Equal versions promise a
// bit-identical full series (the dataset.Product contract), so version +
// prefix length identifies the prefix exactly; no rating bytes are hashed.
//
//lint:hotpath
func seriesFingerprint(version uint64, prefixLen int) uint64 {
	h := memoFNVOffset
	v := version
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= memoFNVPrime
		v >>= 8
	}
	v = uint64(prefixLen)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= memoFNVPrime
		v >>= 8
	}
	return h
}

// trustFingerprint hashes the trust records of exactly the given raters
// (callers pass the sorted unique raters of one product's prefix, making
// the fingerprint rater-scoped: churn on other raters cannot move it).
//
//lint:hotpath
func trustFingerprint(mgr *trust.Manager, raters []string) uint64 {
	h := memoFNVOffset
	for _, r := range raters {
		for i := 0; i < len(r); i++ {
			h ^= uint64(r[i])
			h *= memoFNVPrime
		}
		rec := mgr.Record(r)
		h ^= math.Float64bits(rec.S)
		h *= memoFNVPrime
		h ^= math.Float64bits(rec.F)
		h *= memoFNVPrime
	}
	return h
}

// trustRecordsMatch is the exact (collision-proof) verification behind
// every fingerprint hit: each cached record must equal the live manager's
// bit for bit.
//
//lint:hotpath
func trustRecordsMatch(mgr *trust.Manager, raters []string, recs []trust.Record) bool {
	if len(raters) != len(recs) {
		return false
	}
	for i, r := range raters {
		rec := mgr.Record(r)
		if math.Float64bits(rec.S) != math.Float64bits(recs[i].S) ||
			math.Float64bits(rec.F) != math.Float64bits(recs[i].F) {
			return false
		}
	}
	return true
}

// epochHit reports whether the cached entry for epoch ep can be replayed
// for a prefix of prefixLen ratings under mgr, returning the cached fold
// and epoch marks (shared with the cache: callers must not modify them).
// trustSame short-circuits the trust check: the caller proved the whole
// epoch-start trust snapshot is unchanged since the entry was recorded
// (see EvalState.trustSame), so the rater-scoped restriction is too.
func (m *productMemo) epochHit(ep, prefixLen int, mgr *trust.Manager, trustSame bool) ([]raterFold, []bool, bool) {
	if ep >= len(m.epochs) {
		return nil, nil, false
	}
	ent := &m.epochs[ep]
	if !ent.valid || ent.prefixLen != prefixLen ||
		ent.seriesFP != seriesFingerprint(m.version, prefixLen) {
		return nil, nil, false
	}
	if !trustSame {
		if ent.trustFP&memoFPMask != trustFingerprint(mgr, ent.pre.raters)&memoFPMask {
			return nil, nil, false
		}
		if !trustRecordsMatch(mgr, ent.pre.raters, ent.recs) {
			return nil, nil, false // fingerprint collision: verify caught it
		}
	}
	return ent.counts, ent.marks, true
}

// finalHit is epochHit for the final pass: on a hit it returns fresh
// copies of the cached suspicious marks and scores (served results must
// never alias cache memory — callers own what Resume returns).
func (m *productMemo) finalHit(seriesLen int, mgr *trust.Manager, trustSame bool) ([]bool, []float64, bool) {
	ent := &m.final
	if !ent.valid || ent.seriesFP != seriesFingerprint(m.version, seriesLen) {
		return nil, nil, false
	}
	if !trustSame {
		if ent.trustFP&memoFPMask != trustFingerprint(mgr, ent.pre.raters)&memoFPMask {
			return nil, nil, false
		}
		if !trustRecordsMatch(mgr, ent.pre.raters, ent.recs) {
			return nil, nil, false
		}
	}
	return append([]bool(nil), ent.marks...), append([]float64(nil), ent.scores...), true
}

// signalReuse is what a trust-tier miss takes from the signals tier: a
// cached prefixSignals and which of its parts hold for the prefix and
// horizon being analyzed. completeSignals computes the rest.
type signalReuse struct {
	pre    prefixSignals
	series bool // raters and the MC/HC/ME signals
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
	if ep >= len(m.epochs) {
		return reuseSignals(false, 0, n, prefixSignals{}, hi)
	}
	ent := &m.epochs[ep]
	ok := ent.valid && ent.seriesFP == seriesFingerprint(m.version, ent.prefixLen)
	return reuseSignals(ok, ent.prefixLen, n, ent.pre, hi)
}

// finalSignals looks up the signals tier for a final-pass miss on the
// whole series of n ratings at the dataset horizon: the final entry's own
// tier, else the newest epoch entry's (its prefix is the longest cached;
// it is the whole series when no rating lies past its epoch).
func (m *productMemo) finalSignals(n int, horizon float64) signalReuse {
	if ent := &m.final; ent.valid && ent.seriesFP == seriesFingerprint(m.version, n) {
		return reuseSignals(true, n, n, ent.pre, horizon)
	}
	for ep := len(m.epochs) - 1; ep >= 0; ep-- {
		if ent := &m.epochs[ep]; ent.valid {
			ok := ent.seriesFP == seriesFingerprint(m.version, ent.prefixLen)
			return reuseSignals(ok, ent.prefixLen, n, ent.pre, horizon)
		}
	}
	return reuseSignals(false, 0, n, prefixSignals{}, horizon)
}

// newEpochEntry snapshots one product's epoch analysis of a prefix of
// prefixLen ratings for the memo: the prefix's signals tier (raters
// included), the raters' current records, the fold counts and the epoch's
// own marks.
func newEpochEntry(version uint64, prefixLen int, pre prefixSignals, mgr *trust.Manager, counts []raterFold, marks []bool) memoEntry {
	return memoEntry{
		valid:     true,
		prefixLen: prefixLen,
		seriesFP:  seriesFingerprint(version, prefixLen),
		pre:       pre,
		trustFP:   trustFingerprint(mgr, pre.raters),
		recs:      snapshotRecords(mgr, pre.raters),
		counts:    counts,
		marks:     marks,
	}
}

// newFinalEntry snapshots one product's final pass over its seriesLen
// ratings: the full series' signals tier (raters included) and copies of
// the marks and scores under the final trust (the live ones are handed to
// the caller).
func newFinalEntry(version uint64, seriesLen int, pre prefixSignals, mgr *trust.Manager, marks []bool, scores []float64) finalEntry {
	return finalEntry{
		valid:    true,
		seriesFP: seriesFingerprint(version, seriesLen),
		pre:      pre,
		trustFP:  trustFingerprint(mgr, pre.raters),
		recs:     snapshotRecords(mgr, pre.raters),
		marks:    append([]bool(nil), marks...),
		scores:   append([]float64(nil), scores...),
	}
}

// snapshotRecords copies the raters' current trust records, aligned with
// the (sorted) rater slice.
func snapshotRecords(mgr *trust.Manager, raters []string) []trust.Record {
	if len(raters) == 0 {
		return nil
	}
	recs := make([]trust.Record, len(raters))
	for i, r := range raters {
		recs[i] = mgr.Record(r)
	}
	return recs
}

// sortedFold converts a rater→counts map into the canonical sorted slice
// form used by memo entries and fold comparison.
func sortedFold(counts map[string]raterCounts) []raterFold {
	out := make([]raterFold, 0, len(counts))
	for rater := range counts {
		out = append(out, raterFold{rater: rater})
	}
	// Rater keys are unique, so any correct sort gives this one order.
	slices.SortFunc(out, func(a, b raterFold) int { return strings.Compare(a.rater, b.rater) })
	for i := range out {
		c := counts[out[i].rater]
		out[i].n = c.n
		out[i].f = c.f
	}
	return out
}

// foldsEqual reports whether two canonical folds are identical. Counts are
// integers, so equality here is exact, and equal folds applied to equal
// incoming trust produce bit-identical outgoing trust — the cascade that
// keeps later epochs' caches warm.
func foldsEqual(a, b []raterFold) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
