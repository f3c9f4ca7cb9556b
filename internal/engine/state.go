package engine

import (
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/epoch"
	"repro/internal/trust"
)

// EvalState is the engine's checkpointable state: a trust snapshot at every
// completed epoch boundary. checkpoints[e] is rater trust at the *start* of
// epoch e — i.e. after folding epochs [0, e) — so checkpoints[0] is the
// empty manager and, once an evaluation has run, the last element is the
// final trust. A state is bound to one dataset identity (product set +
// horizon) and one engine configuration (Engine.key); Resume resets it
// transparently if either changes.
//
// An EvalState is not safe for concurrent use; callers (internal/server)
// serialize Resume under their own lock.
//
// Everything else the state keeps is per product position (prods), and
// intern brings it in line with the product's series at the start of
// every Resume: the ordinal column, the causal marks, the detector carry
// and the memo entries (memo.go).
//
// prods[i].causal[j] is the mark that rating j's own epoch decision gave
// it: exactly what that epoch's fold counted (fold) and what its period
// was published from. So checkpoints e+1 on are a pure function of
// checkpoint e, the series and this column, which is what lets an engine
// image restore them without a Decide (image.go).
//
// Rater identity is interned once per state: syms maps each rater ID to a
// dense ordinal (append-only, first-seen order), and prods[i].ords is
// product i's ordinal column, so trust and memo keys index slices instead
// of hashing IDs. Ordinals depend on the order the state first saw its
// raters, never on the ratings alone, so no output depends on them: memo
// keys only compare ordinals of this one table, folds touch each rater's
// own record, and every order that is observed (Snapshot) is by rater ID.
//
// prods[i].carry is product i's detector carry (detect.Prefix): the MC,
// HC and ME values of the series it last covered, and the H-/L-ARC daily
// counts and curves of the last horizon. It outlives the Resume that
// computed it, so a submit recomputes only the detector windows its rating
// reaches. The carry is keyed by content: intern rewinds its MC/HC/ME
// part to the prefix it shares with the product's series whenever the
// series header changes, and within one Resume every analyzed prefix is a
// prefix of that series. The ARC part diffs its counts on every call, so
// it needs no rewind.
//
// The state also counts the work done on it (Stats). The counters survive
// Reset and rebinding, so they only grow over the state's life.
type EvalState struct {
	horizon     float64
	products    []string
	config      Engine // the engine the state was bound under, Workers zeroed
	checkpoints []*trust.Manager

	syms  *trust.Symbols
	prods []productState

	stats counters
}

// counters is an EvalState's work instrumentation. The fields are atomic
// because pool workers add to them concurrently and Stats may be read by a
// metrics scrape while a Resume runs.
type counters struct {
	analyzed, skipped                     atomic.Uint64
	memoHits, memoMisses, memoInvalidated atomic.Uint64
	signalHits, signalMisses              atomic.Uint64
	restored                              atomic.Uint64
}

// countSignals counts the signals-tier lookup behind one trust-tier miss:
// a hit or a miss for each of its two parts.
func (c *counters) countSignals(r signalReuse) {
	for _, hit := range [2]bool{r.series, r.arc} {
		if hit {
			c.signalHits.Add(1)
		} else {
			c.signalMisses.Add(1)
		}
	}
}

// Stats is a snapshot of an EvalState's work counters. They are cumulative
// over the state's life; deltas between two snapshots bound the work done
// in between.
type Stats struct {
	// Analyzed counts products whose detector analysis ran to completion.
	Analyzed uint64
	// Skipped counts products abandoned because the evaluation's context
	// was cancelled before their analysis started.
	Skipped uint64
	// MemoHits counts per-(product, epoch) and final-pass lookups served
	// from the memo plane instead of re-analysis.
	MemoHits uint64
	// MemoMisses counts lookups that fell through to analysis (and, on
	// success, re-recorded the entry).
	MemoMisses uint64
	// MemoInvalidated counts cached entries dropped because the product's
	// series header changed: the series was edited, or recopied with the
	// same content.
	MemoInvalidated uint64
	// SignalHits counts trust-free signal parts (MC/HC/ME, or H-/L-ARC) a
	// memo miss reused instead of recomputing; only Decide ran for them.
	SignalHits uint64
	// SignalMisses counts signal parts a memo miss recomputed.
	SignalMisses uint64
	// Restored counts products whose signals tiers came from an engine
	// image (Engine.Restore).
	Restored uint64
}

// Stats returns a snapshot of the work counted on this state. It is safe
// to call concurrently with Resume.
func (st *EvalState) Stats() Stats {
	c := &st.stats
	return Stats{
		Analyzed:        c.analyzed.Load(),
		Skipped:         c.skipped.Load(),
		MemoHits:        c.memoHits.Load(),
		MemoMisses:      c.memoMisses.Load(),
		MemoInvalidated: c.memoInvalidated.Load(),
		SignalHits:      c.signalHits.Load(),
		SignalMisses:    c.signalMisses.Load(),
		Restored:        c.restored.Load(),
	}
}

// NewState returns an empty state; the first Resume evaluates from scratch.
func NewState() *EvalState { return &EvalState{} }

// CompletedEpochs reports how many trust epochs are checkpointed (0 for a
// fresh or Reset state).
func (st *EvalState) CompletedEpochs() int {
	if len(st.checkpoints) == 0 {
		return 0
	}
	return len(st.checkpoints) - 1
}

// Reset drops every checkpoint, the symbol table and the per-product
// columns, carries and memo entries, so the next Resume matches nothing,
// rebinds and evaluates from scratch. The counters are kept.
func (st *EvalState) Reset() {
	st.checkpoints, st.syms, st.prods = nil, nil, nil
}

// productState is what the state keeps for one product position, all of
// it in line with series, the series header intern last saw:
// ords[j] is the ordinal of the rater of rating j, causal[j] its causal
// mark, carry the product's detector carry and memo its memo entries.
// Keeping the header costs no copy: a series is never mutated below its
// length (dataset.Series.Insert), so it still holds the ratings the
// checkpoints were computed from. published[e] is its period-e causal
// score, written with checkpoints[e+1] (publish), and handed records that
// a Result shares that row.
type productState struct {
	series    dataset.Series
	ords      []uint32
	causal    []bool
	carry     detect.Prefix
	memo      productMemo
	published []float64
	handed    bool
}

// publish sets period ep's published score to v. A value with unchanged
// bits is not written, so the row stays shared with the Results that hold
// it; a changed one copies a shared row first.
func (ps *productState) publish(ep int, v float64) {
	if math.Float64bits(ps.published[ep]) == math.Float64bits(v) {
		return
	}
	if ps.handed {
		ps.published, ps.handed = slices.Clone(ps.published), false
	}
	ps.published[ep] = v
}

// intern brings every product's state in line with its series, cuts the
// checkpoints the changes reach, and returns the ordinal columns. A
// product whose series header is the one its state was interned from
// (same length, same first element) keeps its state: the state keeps that
// header, so its array cannot be reused, and nothing writes below a kept
// length (dataset.Product), so its content is unchanged. Any other product
// is compared with the series its state was interned from and re-interned
// from the first rating that differs, its causal column cut there (the
// epochs that rewrite the rest re-run), its carry rewound to the prefix it
// shares with the series and its memo entries dropped, counted as
// invalidated. The earliest day at which any compared series changed
// decides the cut: checkpoint e is trust entering epoch e, which reads
// only ratings before day 30·e, so every checkpoint past the epoch of that
// day is dropped and every earlier one is kept. New raters extend the
// symbol table: the previous Resume's managers read it, so the first new
// rater of a Resume forks it (trust.Symbols.Intern, O(new names)), and a
// Result handed out earlier never sees it written.
func (st *EvalState) intern(d *dataset.Dataset) [][]uint32 {
	cols := make([][]uint32, len(d.Products))
	changed := math.Inf(1)
	for i := range d.Products {
		s, ps := d.Products[i].Ratings, &st.prods[i]
		if old := ps.series; len(old) != len(s) || len(s) != 0 && &old[0] != &s[0] {
			k, day := firstChange(old, s)
			changed = min(changed, day)
			ps.series, ps.ords = s, st.reintern(s, ps.ords[:k])
			ps.causal = slices.Grow(ps.causal[:k], len(s)-k)[:len(s)]
			st.stats.memoInvalidated.Add(ps.memo.drop())
			ps.carry.Rewind(s, st.config.Detect)
		}
		cols[i] = ps.ords
	}
	if e := epoch.PeriodOf(changed, st.horizon); e+1 < len(st.checkpoints) {
		// Drop references so the trust snapshots can be collected.
		clear(st.checkpoints[e+1:])
		st.checkpoints = st.checkpoints[:e+1]
	}
	return cols
}

// firstChange returns the first index k at which s differs from old in
// Day bits, Value bits or Rater, or at which one of them ends, and the day
// from which they differ: the earlier of their days at k, or +Inf when the
// series are identical.
func firstChange(old, s dataset.Series) (int, float64) {
	k, n := 0, min(len(old), len(s))
	for k < n && math.Float64bits(old[k].Day) == math.Float64bits(s[k].Day) &&
		math.Float64bits(old[k].Value) == math.Float64bits(s[k].Value) &&
		old[k].Rater == s[k].Rater {
		k++
	}
	day := math.Inf(1)
	if k < len(old) {
		day = old[k].Day
	}
	if k < len(s) {
		day = min(day, s[k].Day)
	}
	return k, day
}

// reintern returns the ordinal column of s, given col, the column of a
// series whose raters match s's on len(col) leading ratings: it keeps
// col's ordinals and interns only the rest of s, in place. A
// rater already in the table keeps its ordinal; a new one extends the
// table.
func (st *EvalState) reintern(s dataset.Series, col []uint32) []uint32 {
	k := len(col)
	col = slices.Grow(col, len(s)-k)[:len(s)]
	for j := k; j < len(s); j++ {
		st.syms, col[j] = st.syms.Intern(s[j].Rater)
	}
	return col
}

// matches reports whether the state's checkpoints were computed for this
// dataset identity (bit-identical horizon, same product list in the same
// order). The identity is content-based, not pointer-based: a combined
// dataset rebuilt from per-shard partitions on every coordinator cut
// (internal/store) still matches, so Resume keeps reusing checkpoints
// across rebuilds.
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

// bind rebinds the state to the dataset and the engine configuration and
// discards all checkpoints and per-product state. Each product's published
// row and memo entry array are sized by the horizon bound here, which a
// state keeps until the next bind; each kind is one block for all
// products.
func (st *EvalState) bind(d *dataset.Dataset, config Engine) {
	st.horizon = d.HorizonDays
	st.products = d.ProductIDs()
	st.config = config
	st.syms = trust.NewSymbols(0)
	st.prods = make([]productState, len(d.Products))
	st.checkpoints = []*trust.Manager{trust.NewManager()}
	n := epoch.Periods(d.HorizonDays)
	rows, ents := make([]float64, len(d.Products)*n), make([]memoEntry, len(d.Products)*n)
	for i := range st.prods {
		st.prods[i].published = rows[i*n : (i+1)*n : (i+1)*n]
		st.prods[i].memo.epochs = ents[i*n : (i+1)*n : (i+1)*n]
	}
}
