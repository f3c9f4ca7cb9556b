package engine

import (
	"math"
	"sort"

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
// trust consumer inside detect.AnalyzeWith is the MC segment test, which
// averages trust over raters appearing in the analyzed series, so trust
// churn on raters a product never saw cannot change one bit of its report.
// The memo plane caches those pure-function results per (product, epoch)
// and replays them on later Resumes, keyed by
//
//   - a series fingerprint derived from the product's monotone content
//     Version (maintained incrementally by internal/store on every applied
//     submit — no rehashing) plus the prefix length, and
//   - a rater-scoped trust fingerprint: an FNV-1a hash over the prefix's
//     sorted rater IDs and their epoch-start trust records.
//
// A hit is never served on fingerprint equality alone: the cached records
// are compared bit-for-bit against the live manager first (the cache
// verifies, it never trusts the hash blindly), so a 64-bit collision can
// cost a miss but never a wrong answer. Bit-exactness of a hit is then by
// construction — the hit replays the exact cached fold (and, for the final
// pass, a deep clone of the exact cached report and scores).

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

// memoEntry caches one product's outcome for one epoch: the per-rater fold
// counts the epoch's analysis produced and the marks of the epoch's own
// [lo, hi) ratings, keyed by the series prefix and the rater-scoped trust
// snapshot it was computed under.
type memoEntry struct {
	valid     bool
	prefixLen int            // ratings in [0, hi) when recorded
	seriesFP  uint64         // seriesFingerprint(version, prefixLen) at record time
	trustFP   uint64         // trustFingerprint over raters at record time
	raters    []string       // sorted unique raters of the prefix
	recs      []trust.Record // their records at the epoch start, aligned with raters
	counts    []raterFold    // the cached fold result (canonical order)
	marks     []bool         // marks of the epoch's [lo, hi) ratings
}

// finalEntry caches one product's uncheckpointed final pass (stages 3+4):
// the full-series detector report and the Eq. 7 scores, keyed like a
// memoEntry but against the *final* trust.
type finalEntry struct {
	valid    bool
	seriesFP uint64
	trustFP  uint64
	raters   []string
	recs     []trust.Record
	report   detect.Report // deep clone; never aliased by served results
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
// counter), so it opts out of memoization entirely: returns nil.
func (st *EvalState) memoFor(p *dataset.Product) *productMemo {
	if p.Version == 0 {
		return nil
	}
	m := st.memo[p.ID]
	if m == nil {
		m = &productMemo{version: p.Version, epochs: make([]memoEntry, len(st.folds))}
		st.memo[p.ID] = m
		return m
	}
	if m.version != p.Version {
		dropped := uint64(0)
		for i := range m.epochs {
			if m.epochs[i].valid {
				m.epochs[i] = memoEntry{}
				dropped++
			}
		}
		if m.final.valid {
			m.final = finalEntry{}
			dropped++
		}
		memoInvalidated.Add(dropped)
		m.version = p.Version
	}
	return m
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
		if ent.trustFP&memoFPMask != trustFingerprint(mgr, ent.raters)&memoFPMask {
			return nil, nil, false
		}
		if !trustRecordsMatch(mgr, ent.raters, ent.recs) {
			return nil, nil, false // fingerprint collision: verify caught it
		}
	}
	return ent.counts, ent.marks, true
}

// finalHit is epochHit for the final pass: on a hit it returns fresh deep
// copies of the cached suspicious marks and scores (served results must
// never alias cache memory — callers own what Resume returns).
func (m *productMemo) finalHit(seriesLen int, mgr *trust.Manager, trustSame bool) ([]bool, []float64, bool) {
	ent := &m.final
	if !ent.valid || ent.seriesFP != seriesFingerprint(m.version, seriesLen) {
		return nil, nil, false
	}
	if !trustSame {
		if ent.trustFP&memoFPMask != trustFingerprint(mgr, ent.raters)&memoFPMask {
			return nil, nil, false
		}
		if !trustRecordsMatch(mgr, ent.raters, ent.recs) {
			return nil, nil, false
		}
	}
	rep := ent.report.Clone()
	return rep.Suspicious, append([]float64(nil), ent.scores...), true
}

// newEpochEntry snapshots one product's epoch analysis for the memo:
// the prefix's sorted raters, their current records, the fold counts and
// the epoch's own marks.
func newEpochEntry(version uint64, seen dataset.Series, mgr *trust.Manager, counts []raterFold, marks []bool) memoEntry {
	raters := uniqueRaters(seen)
	return memoEntry{
		valid:     true,
		prefixLen: len(seen),
		seriesFP:  seriesFingerprint(version, len(seen)),
		trustFP:   trustFingerprint(mgr, raters),
		raters:    raters,
		recs:      snapshotRecords(mgr, raters),
		counts:    counts,
		marks:     marks,
	}
}

// newFinalEntry snapshots one product's final pass: the full-series report
// (deep-cloned — the live one is handed to the caller) and scores under the
// final trust.
func newFinalEntry(version uint64, s dataset.Series, mgr *trust.Manager, rep detect.Report, scores []float64) finalEntry {
	raters := uniqueRaters(s)
	return finalEntry{
		valid:    true,
		seriesFP: seriesFingerprint(version, len(s)),
		trustFP:  trustFingerprint(mgr, raters),
		raters:   raters,
		recs:     snapshotRecords(mgr, raters),
		report:   rep.Clone(),
		scores:   append([]float64(nil), scores...),
	}
}

// uniqueRaters returns the sorted distinct rater IDs of the series
// (sort-then-compact: no map iteration, deterministic by construction).
func uniqueRaters(s dataset.Series) []string {
	if len(s) == 0 {
		return nil
	}
	out := make([]string, len(s))
	for i, r := range s {
		out[i] = r.Rater
	}
	sort.Strings(out)
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[i-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
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
	sort.Slice(out, func(i, j int) bool { return out[i].rater < out[j].rater })
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
