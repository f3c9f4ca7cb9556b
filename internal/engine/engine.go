// Package engine is the epoch-structured evaluation engine behind the
// P-scheme (internal/agg.PScheme). It decomposes the pipeline of Section IV
// into explicit stages
//
//	per-product epoch analysis → per-rater trust fold → final marks → Eq. 7 aggregation
//
// operating on a checkpointable EvalState that snapshots rater trust at
// every epoch boundary. Two properties of Procedure 1 make the engine both
// parallel and incremental:
//
//   - Within one epoch, rater trust is frozen: every product's detector
//     analysis reads the same trust snapshot and no product's marks feed
//     another product until the fold at the epoch boundary. Per-product
//     detect.Analyze calls are therefore independent and fan out over a
//     bounded worker pool.
//
//   - Trust accumulation is strictly causal: the state at the start of
//     epoch e is a pure function of the ratings with Day < 30·e. A new
//     rating on day d can only perturb epochs ≥ epoch(d), so evaluation
//     resumes from the checkpoint at epoch(d) and reuses every earlier
//     epoch's trust fold verbatim.
//
// Both paths are bit-exact with a cold, serial evaluation: epoch counts are
// integers (order-independent), each rater is folded exactly once per epoch,
// and the detector stack is deterministic, so neither worker scheduling nor
// checkpoint reuse can change a single output bit (see the equivalence
// property tests).
package engine

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/epoch"
	"repro/internal/trust"
)

// Engine evaluates a dataset under the P-scheme pipeline. The zero value
// is not useful; set Detect (e.g. detect.DefaultConfig()).
type Engine struct {
	// Detect configures the four detectors and the fusion.
	Detect detect.Config
	// DisableFilter keeps suspicious ratings in the aggregation (ablation).
	DisableFilter bool
	// DisableTrustWeighting aggregates with equal weights instead of
	// Eq. 7's max(T−0.5, 0) (ablation).
	DisableTrustWeighting bool
	// DisableMemo turns off the memo plane (see memo.go): every product is
	// re-analyzed in every dirty epoch, as if no result were ever cached.
	// Exists for the memo-on vs memo-off equivalence tests and as an
	// operational escape hatch; output is bit-identical either way.
	DisableMemo bool
	// Workers bounds the per-product analysis parallelism within an epoch:
	// 0 means GOMAXPROCS, 1 runs serially.
	Workers int
}

// New returns an engine with the given detector configuration.
func New(cfg detect.Config) *Engine { return &Engine{Detect: cfg} }

// Result is the full outcome of an evaluation: the per-product per-period
// aggregates, the per-rating suspicious marks (aligned with each product's
// sorted series), the final trust state, and the causal table. Table judges
// every period with hindsight (final marks, final trust); Published holds
// each period's score as published at the end of its epoch (that epoch's
// marks, the trust right after its fold), never revised by later data —
// the table agg.OnlinePScheme returns.
type Result struct {
	Table      map[string][]float64
	Suspicious map[string][]bool
	Trust      *trust.Manager
	Published  map[string][]float64
}

// Evaluate runs the full pipeline cold (no checkpoint reuse). It returns
// ctx.Err() — and no result — if the context is cancelled mid-evaluation.
func (e *Engine) Evaluate(ctx context.Context, d *dataset.Dataset) (*Result, error) {
	return e.Resume(ctx, NewState(), d)
}

// Resume brings st up to date with the dataset and returns the evaluation
// result. Epochs already checkpointed in st are reused verbatim; the caller
// must have called st.Invalidate(day) for every rating day added, removed
// or modified since the state was last resumed (NewState, or a state whose
// product set or horizon changed, recomputes everything).
//
// Cancelling ctx stops the evaluation between products and between epochs
// and returns ctx.Err(). Cancellation is checkpoint-safe: st only ever
// holds trust snapshots of fully completed epochs (a half-analyzed epoch's
// counts are discarded, never folded), so a later Resume with a live
// context picks up exactly where the cancelled one stopped and produces a
// bit-exact result — pinned by TestResumeCancelledMidEvaluate.
func (e *Engine) Resume(ctx context.Context, st *EvalState, d *dataset.Dataset) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !st.matches(d) {
		st.reset(d)
	}
	n := epoch.Periods(d.HorizonDays)

	// Stages 1+2 (per-product epoch analysis, per-rater trust fold):
	// resume Procedure 1 from the newest surviving checkpoint. The working
	// manager is a clone, so earlier checkpoints — and any previously
	// returned Result — are never mutated.
	//
	// Each completed epoch also maintains the memo plane's trust-sameness
	// cascade: once epoch ep completes, every memo entry recorded at ep is
	// keyed against checkpoint ep (hits were verified against it, misses
	// re-recorded under it), so trustSame[ep] becomes true. If additionally
	// the incoming trust was unchanged (same) and the fresh fold equals the
	// last completed run's fold (foldSame), the outgoing trust — the next
	// checkpoint — is unchanged too, and the sameness cascades forward.
	//
	// Right after each fold, period ep is published into st.published[ep]:
	// Eq. 7 over the epoch's own marks with the post-fold trust.
	mgr := st.checkpoints[len(st.checkpoints)-1].Clone()
	var kept []bool
	for ep := len(st.checkpoints) - 1; ep < n; ep++ {
		same := st.trustSame[ep]
		fold, marks, err := e.runEpoch(ctx, d, ep, mgr, st, same)
		if err != nil {
			return nil, err
		}
		foldSame := st.folds[ep] != nil && foldsEqual(st.folds[ep], fold)
		st.folds[ep] = fold
		if !e.DisableMemo {
			st.trustSame[ep] = true
		}
		for _, fc := range fold {
			mgr.Observe(fc.rater, fc.n, fc.f)
		}
		lo, hi := epoch.PeriodInterval(ep, d.HorizonDays)
		row := make([]float64, len(d.Products))
		for i := range d.Products {
			s := d.Products[i].Ratings
			start, end := s.BetweenIndex(lo, hi)
			row[i], kept = e.aggregatePeriod(s[start:end], marks[i], mgr, kept)
		}
		st.published[ep] = row
		st.checkpoints = append(st.checkpoints, mgr.Clone())
		cascade := same && foldSame
		st.trustSame[ep+1] = st.trustSame[ep+1] && cascade
		if ep == n-1 {
			st.finalConsistent = st.finalConsistent && cascade
		}
	}

	// Stages 3+4 (final marks, Eq. 7 aggregation): an offline pass per
	// product over the full series with the final trust, so an attack only
	// visible once its end is in view is still filtered from the periods
	// it poisoned. This pass is not checkpointed — but it is memoized: a
	// product whose series version and rater-scoped final trust are
	// unchanged replays its cached report and scores instead of
	// re-analyzing, so a single late submit costs one product's analysis,
	// not one per product. Trust is read-only here, so misses fan out
	// freely over the pool while hits are resolved serially up front.
	marks := make([][]bool, len(d.Products))
	scores := make([][]float64, len(d.Products))
	memos := make([]*productMemo, len(d.Products))
	var work []int
	for i := range d.Products {
		prod := &d.Products[i]
		if !e.DisableMemo {
			if m := st.memoFor(prod); m != nil {
				memos[i] = m
				if mk, sc, ok := m.finalHit(len(prod.Ratings), mgr, st.finalConsistent); ok {
					marks[i], scores[i] = mk, sc
					memoHits.Add(1)
					continue
				}
				memoMisses.Add(1)
			}
		}
		work = append(work, i)
	}
	ents := make([]finalEntry, len(d.Products))
	err := e.forEachProduct(ctx, len(work), func(k int, sc *detect.Scratch) {
		i := work[k]
		prod := &d.Products[i]
		rep := detect.AnalyzeWith(prod.Ratings, d.HorizonDays, e.Detect, mgr, sc)
		marks[i] = rep.Suspicious
		scores[i] = e.aggregateProduct(prod.Ratings, rep.Suspicious, d.HorizonDays, mgr)
		if memos[i] != nil {
			ents[i] = newFinalEntry(memos[i].version, prod.Ratings, mgr, rep, scores[i])
		}
	})
	if err != nil {
		// The epoch checkpoints above are complete and remain valid; only
		// this uncheckpointed final pass is abandoned. No memo entry from
		// the unfinished pass is committed (the commit below never runs),
		// so the cache still describes completed work only.
		return nil, err
	}
	// Commit the fresh final entries serially: productMemo is not
	// goroutine-safe, and committing only after the pool fully succeeded
	// keeps cancellation from publishing half a pass.
	for _, i := range work {
		if memos[i] != nil && ents[i].valid {
			memos[i].final = ents[i]
		}
	}
	if !e.DisableMemo {
		st.finalConsistent = true
	}

	res := &Result{
		Table:      make(map[string][]float64, len(d.Products)),
		Suspicious: make(map[string][]bool, len(d.Products)),
		Trust:      mgr,
		Published:  make(map[string][]float64, len(d.Products)),
	}
	for i, prod := range d.Products {
		res.Table[prod.ID] = scores[i]
		res.Suspicious[prod.ID] = marks[i]
		pub := make([]float64, n)
		for ep := range pub {
			pub[ep] = st.published[ep][i]
		}
		res.Published[prod.ID] = pub
	}
	return res, nil
}

// raterCounts is one rater's in-epoch evidence: n ratings observed, f of
// them marked suspicious.
type raterCounts struct{ n, f int }

// runEpoch executes one trust epoch of Procedure 1: analyze every product's
// prefix [0, end-of-epoch) under the trust at the epoch start, count each
// rater's (observed, suspicious) ratings inside the epoch, and return the
// merged per-rater counts in canonical sorted form (the caller folds them
// into mgr, so mgr is read-only here and while workers run). It also
// returns each product's marks for the epoch's own ratings, aligned with
// the product's [lo, hi) period, for the caller's causal publication.
//
// Products whose (series prefix, rater-scoped trust) key matches their memo
// entry replay the cached counts and skip analysis entirely; trustSame
// short-circuits even the fingerprint work when the caller proved the whole
// epoch-start snapshot unchanged. Hit checks and entry commits run serially
// on either side of the pool — only misses fan out. On cancellation the
// partially collected counts and entries are discarded without touching mgr
// or the memo, so the caller's state still describes whole completed epochs.
func (e *Engine) runEpoch(ctx context.Context, d *dataset.Dataset, ep int, mgr *trust.Manager, st *EvalState, trustSame bool) ([]raterFold, [][]bool, error) {
	lo, hi := epoch.PeriodInterval(ep, d.HorizonDays)
	perProduct := make([][]raterFold, len(d.Products))
	marks := make([][]bool, len(d.Products))

	memos := make([]*productMemo, len(d.Products))
	var work []int
	for i := range d.Products {
		prod := &d.Products[i]
		if !e.DisableMemo {
			if m := st.memoFor(prod); m != nil {
				memos[i] = m
				start, end := prod.Ratings.BetweenIndex(0, hi)
				if counts, mk, ok := m.epochHit(ep, end-start, mgr, trustSame); ok {
					perProduct[i], marks[i] = counts, mk
					memoHits.Add(1)
					continue
				}
				memoMisses.Add(1)
			}
		}
		work = append(work, i)
	}

	ents := make([]memoEntry, len(d.Products))
	err := e.forEachProduct(ctx, len(work), func(k int, sc *detect.Scratch) {
		i := work[k]
		prod := &d.Products[i]
		seen := prod.Ratings.Between(0, hi)
		var counts map[string]raterCounts
		if len(seen) > 0 {
			rep := detect.AnalyzeWith(seen, hi, e.Detect, mgr, sc)
			// Earlier epochs already judged the ratings before lo: count,
			// and keep the marks of, only the epoch's own [lo, hi) ratings.
			from, _ := seen.BetweenIndex(lo, hi)
			marks[i] = append([]bool(nil), rep.Suspicious[from:]...)
			for j, r := range seen[from:] {
				if counts == nil {
					counts = make(map[string]raterCounts)
				}
				c := counts[r.Rater]
				c.n++
				if marks[i][j] {
					c.f++
				}
				counts[r.Rater] = c
			}
			perProduct[i] = sortedFold(counts)
		}
		if memos[i] != nil {
			ents[i] = newEpochEntry(memos[i].version, seen, mgr, perProduct[i], marks[i])
		}
	})
	if err != nil {
		return nil, nil, err
	}
	// Commit fresh entries serially after the whole pool succeeded (the
	// memo is not goroutine-safe; a cancelled epoch publishes nothing).
	for _, i := range work {
		if memos[i] != nil && ents[i].valid {
			memos[i].setEpoch(ep, ents[i])
		}
	}

	// Merge. The merged counts are integers, so neither the worker
	// schedule nor hit-vs-miss provenance can change any total; the
	// canonical sorted return then makes the caller's fold walk raters in
	// sorted order, keeping the per-epoch trust fold's bit-exactness
	// structural rather than an argument about commutativity.
	total := make(map[string]raterCounts)
	for _, counts := range perProduct {
		for _, fc := range counts {
			t := total[fc.rater]
			t.n += fc.n
			t.f += fc.f
			total[fc.rater] = t
		}
	}
	return sortedFold(total), marks, nil
}

// aggregateProduct computes one product's per-period scores (Eq. 7) from
// its full-series marks. Each period is sliced out of the sorted series by
// index, so the whole table costs O(len(s) + periods·log len(s)) instead of
// a full scan per period.
func (e *Engine) aggregateProduct(s dataset.Series, susMarks []bool, horizon float64, mgr *trust.Manager) []float64 {
	scores := make([]float64, epoch.Periods(horizon))
	var kept []bool
	for i := range scores {
		lo, hi := epoch.PeriodInterval(i, horizon)
		start, end := s.BetweenIndex(lo, hi)
		scores[i], kept = e.aggregatePeriod(s[start:end], susMarks[start:end], mgr, kept)
	}
	return scores
}

// aggregatePeriod scores one period (Eq. 7): marked ratings (marks is
// aligned with period) are dropped, the rest weighted by max(T−0.5, 0); an
// empty period scores NaN. kept is a reusable buffer, returned grown.
func (e *Engine) aggregatePeriod(period dataset.Series, marks []bool, mgr *trust.Manager, kept []bool) (float64, []bool) {
	if len(period) == 0 {
		return math.NaN(), kept
	}
	weight := func(rater string) float64 {
		return math.Max(mgr.Trust(rater)-0.5, 0)
	}
	if e.DisableTrustWeighting {
		weight = func(string) float64 { return 1 }
	}
	kept = kept[:0]
	for j := range period {
		kept = append(kept, e.DisableFilter || !marks[j])
	}
	return epoch.WeightedMean(period, kept, weight), kept
}

// workers resolves the effective pool size.
func (e *Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// scratchPool recycles detector scratch buffers across epochs and
// evaluations. Scratches carry no result state (reuse is bit-exact, see
// internal/detect), so pooling them across engines and goroutines is safe;
// each forEachProduct worker checks one out for its whole batch, giving
// every product analysis warm buffers without any cross-worker sharing.
var scratchPool = sync.Pool{New: func() any { return detect.NewScratch() }}

// Worker-pool instrumentation: process-wide counters of products the pool
// analyzed versus products it skipped because the caller's context was
// already cancelled. They exist so tests (and the chaos harness) can prove
// that cancelling an HTTP request actually stops detector work rather than
// letting the pool drain at full cost.
var (
	poolAnalyzed atomic.Uint64
	poolSkipped  atomic.Uint64
)

// Memo-plane instrumentation: process-wide counters of cache lookups that
// replayed a cached result (hits), fell through to analysis (misses), and
// cached entries dropped because a product's series version moved
// (invalidations). Unversioned products perform no lookups and count
// nothing.
var (
	memoHits        atomic.Uint64
	memoMisses      atomic.Uint64
	memoInvalidated atomic.Uint64
)

// PoolStats is a snapshot of the worker-pool and memo-plane counters.
type PoolStats struct {
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
	// series version changed.
	MemoInvalidated uint64
}

// Stats returns the current process-wide worker-pool counters. Deltas
// between two snapshots bound the work done in between; the absolute
// values are cumulative since process start.
func Stats() PoolStats {
	return PoolStats{
		Analyzed:        poolAnalyzed.Load(),
		Skipped:         poolSkipped.Load(),
		MemoHits:        memoHits.Load(),
		MemoMisses:      memoMisses.Load(),
		MemoInvalidated: memoInvalidated.Load(),
	}
}

// forEachProduct runs fn(i) for i in [0, n) over a bounded worker pool in
// the current goroutine plus up to workers()−1 helpers, handing each worker
// its own detector scratch. fn must only write state owned by index i and
// must not retain sc past the call.
//
// Cancellation is checked before every fn call: once ctx is cancelled no
// new product analysis starts (already-running calls finish — detector
// kernels are short), remaining indices are drained and counted as
// skipped, and ctx.Err() is returned after the pool is fully quiesced, so
// the caller may discard or reuse the output slices immediately.
func (e *Engine) forEachProduct(ctx context.Context, n int, fn func(i int, sc *detect.Scratch)) error {
	done := ctx.Done()
	w := e.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		sc := scratchPool.Get().(*detect.Scratch)
		for i := 0; i < n; i++ {
			if done != nil && ctx.Err() != nil {
				poolSkipped.Add(uint64(n - i))
				scratchPool.Put(sc)
				return ctx.Err()
			}
			fn(i, sc)
			poolAnalyzed.Add(1)
		}
		scratchPool.Put(sc)
		return nil
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			sc := scratchPool.Get().(*detect.Scratch)
			for i := range idx {
				if done != nil && ctx.Err() != nil {
					// Keep draining so the feeder never blocks; every
					// undone index is a skip.
					poolSkipped.Add(1)
					continue
				}
				fn(i, sc)
				poolAnalyzed.Add(1)
			}
			scratchPool.Put(sc)
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if done != nil {
		return ctx.Err()
	}
	return nil
}
