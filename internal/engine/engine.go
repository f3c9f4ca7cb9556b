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
//     detector runs (detect.SeriesSignals, detect.ArrivalSignals, then
//     detect.Decide) are therefore independent and fan out over a bounded
//     worker pool.
//
//   - Trust accumulation is strictly causal: the state at the start of
//     epoch e is a pure function of the ratings with Day < 30·e. A new
//     rating on day d can only perturb epochs ≥ epoch(d), so evaluation
//     resumes from the checkpoint at epoch(d) and reuses every earlier
//     epoch's trust fold verbatim.
//
// Both paths are bit-exact with a cold, serial evaluation: trust evidence is
// integer counts, which float64 sums exactly in any order, and the detector
// stack is deterministic, so neither worker scheduling nor
// checkpoint reuse can change a single output bit (see the equivalence
// property tests).
package engine

import (
	"context"
	"math"
	"runtime"
	"sync"

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
	// Workers bounds the per-product analysis parallelism within an epoch:
	// 0 means GOMAXPROCS, 1 runs serially.
	Workers int
}

// New returns an engine with the given detector configuration.
func New(cfg detect.Config) *Engine { return &Engine{Detect: cfg} }

// key is the configuration an EvalState's checkpoints, memo and carries
// are computed under: e with Workers zeroed, because the pool width never
// changes an output bit.
func (e *Engine) key() Engine {
	k := *e
	k.Workers = 0
	return k
}

// Result is the full outcome of an evaluation: the per-product per-period
// aggregates, the per-rating suspicious marks (aligned with each product's
// sorted series), the final trust state, and the causal table. Table judges
// every period with hindsight (final marks, final trust); Published holds
// each period's score as published at the end of its epoch (that epoch's
// marks, the trust right after its fold), never revised by later data —
// the table agg.OnlinePScheme returns. Every row, and Trust, the state's
// final checkpoint, is the EvalState's own memory, which no later Resume
// writes (a re-run epoch copies a shared Published row before changing
// it): a Result may be read concurrently with one, but callers must not
// write it either (copy a row; Clone the trust for what-if evaluation).
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
// result. It works out itself which epochs changed since st was last
// resumed: every epoch before the earliest rating added, removed or
// modified is reused verbatim (EvalState.intern). The caller's only
// obligation is the dataset.Product header contract. NewState, a Reset
// state, or a state whose product set or horizon changed recomputes
// everything; Evaluate, on a fresh state with no memo to hit, is the
// memo-off reference evaluation.
//
// Cancelling ctx stops the evaluation between products and between epochs
// and returns ctx.Err(). Cancellation is checkpoint-safe: st only ever
// holds trust snapshots of fully completed epochs (a half-analyzed epoch's
// counts are discarded, never folded), so a later Resume with a live
// context picks up exactly where the cancelled one stopped and produces a
// bit-exact result — pinned by the engine arm of internal/server's
// TestServiceOracle.
func (e *Engine) Resume(ctx context.Context, st *EvalState, d *dataset.Dataset) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if config := e.key(); !st.matches(d) || st.config != config {
		st.bind(d, config)
	}
	cols := st.intern(d)
	n := epoch.Periods(d.HorizonDays)

	// Stages 1+2 (per-product epoch analysis, per-rater trust fold):
	// resume Procedure 1 from the newest surviving checkpoint. Epoch ep
	// reads checkpoint ep and writes its marks into the causal columns;
	// fold then folds them into a clone of it onto the state's current
	// symbol table, which becomes checkpoint ep+1. An epoch with no ratings
	// folds nothing, so checkpoint ep itself becomes checkpoint ep+1, and a
	// cancelled epoch writes nothing. A checkpoint is never
	// written once appended, so memo entries and callers share them: the
	// last one is the final trust, handed out as Result.Trust. A kept
	// checkpoint is the very manager the memo entries of its epoch were
	// recorded or last hit under, so those probes hit without comparing
	// records.
	//
	// Right after each fold, period ep is published (productState.publish):
	// Eq. 7 over the epoch's own marks with the post-fold trust.
	//
	// Each analyzed product brings its stored detector carry
	// (st.prods[i].carry) up to the prefix it analyzes instead of
	// recomputing it: every such prefix is a prefix of the series intern
	// rewound the carry to, epoch e+1's extends epoch e's, and the final
	// pass's series extends every epoch's prefix.
	var kept []bool
	for ep := len(st.checkpoints) - 1; ep < n; ep++ {
		if err := e.runEpoch(ctx, d, cols, ep, st); err != nil {
			return nil, err
		}
		next := st.fold(ep)
		lo, hi := epoch.PeriodInterval(ep, d.HorizonDays)
		for i := range d.Products {
			s, ps := d.Products[i].Ratings, &st.prods[i]
			start, end := s.BetweenIndex(lo, hi)
			var v float64
			v, kept = e.aggregatePeriod(s[start:end], cols[i][start:end], ps.causal[start:end], next, kept)
			ps.publish(ep, v)
		}
		st.checkpoints = append(st.checkpoints, next)
	}

	// Stages 3+4 (final marks, Eq. 7 aggregation): an offline pass per
	// product over the full series with the final trust, so an attack only
	// visible once its end is in view is still filtered from the periods
	// it poisoned. This pass is not checkpointed, but it is memoized as
	// pass n: a product whose series header and rater-scoped final trust
	// are unchanged keeps its final marks and scores instead of
	// re-analyzing, so a single late submit costs one product's analysis,
	// not one per product; a product whose series is unchanged but whose
	// raters' trust moved reuses its cached signals and only runs Decide.
	// Trust is read-only here, so misses fan out freely over the pool
	// while hits are resolved serially up front.
	mgr := st.checkpoints[n]
	var work []job
	for i := range d.Products {
		m := st.prods[i].memo
		if m.hit(n, cols[i], mgr) {
			st.stats.memoHits.Add(1)
			continue
		}
		st.stats.memoMisses.Add(1)
		r := m.signals(n, len(cols[i]), d.HorizonDays)
		st.stats.countSignals(r)
		work = append(work, job{i, r})
	}
	marks := make([][]bool, len(work))
	scores := make([][]float64, len(work))
	ents := make([]memoEntry, len(work))
	err := e.forEachProduct(ctx, st, len(work), func(k int, sc *detect.Scratch) {
		i := work[k].i
		prod := &d.Products[i]
		pre := e.completeSignals(prod.Ratings, d.HorizonDays, work[k].reuse, sc, &st.prods[i].carry)
		marks[k] = detect.Decide(prod.Ratings, pre.sig, e.Detect, &seriesTrust{mgr, cols[i]}).Suspicious
		scores[k] = e.aggregateProduct(prod.Ratings, cols[i], marks[k], d.HorizonDays, mgr)
		ents[k] = newEntry(cols[i], pre, mgr)
	})
	if err != nil {
		// The epoch checkpoints above are complete and remain valid; only
		// this uncheckpointed final pass is abandoned. Nothing from the
		// unfinished pass is committed (the commit below never runs), so
		// the state still describes completed work only.
		return nil, err
	}
	// Commit the fresh rows and entries serially: the state is not
	// goroutine-safe, and committing only after the pool fully succeeded
	// keeps cancellation from publishing half a pass.
	for k, w := range work {
		ps := &st.prods[w.i]
		ps.final, ps.scores, ps.memo[n] = marks[k], scores[k], ents[k]
	}

	res := &Result{
		Table:      make(map[string][]float64, len(d.Products)),
		Suspicious: make(map[string][]bool, len(d.Products)),
		Trust:      mgr,
		Published:  make(map[string][]float64, len(d.Products)),
	}
	for i, prod := range d.Products {
		ps := &st.prods[i]
		res.Table[prod.ID], res.Suspicious[prod.ID] = ps.scores, ps.final
		res.Published[prod.ID], ps.handed = ps.published, true
	}
	return res, nil
}

// runEpoch executes one trust epoch of Procedure 1: it analyzes every
// product's prefix [0, end-of-epoch) under checkpoint ep, the trust at the
// epoch start, and writes each product's marks for the epoch's own [lo,
// hi) ratings into its causal column, from which fold takes the epoch's
// counts and the caller publishes the period. cols are the products'
// ordinal columns (EvalState.intern).
//
// A product with no ratings in the epoch is skipped outright: it folds
// and publishes nothing, so no analysis can matter. A product whose
// (series prefix, rater-scoped trust) key matches its memo entry
// skips analysis entirely: its column already holds the entry's marks. A
// miss whose prefix is cached reuses the entry's trust-free signals and
// runs only detect.Decide (memo.go). Hit checks (signal lookups included)
// and the commits of entries and marks run serially on either side of the
// pool — only misses fan out. Each miss brings the product's stored carry
// up to its prefix; each worker owns the carry of the product it
// analyzes, so the carries need no locks. On cancellation the partially
// collected marks and entries are discarded without touching the memo,
// the columns or any checkpoint, so the state still describes whole
// completed epochs.
func (e *Engine) runEpoch(ctx context.Context, d *dataset.Dataset, cols [][]uint32, ep int, st *EvalState) error {
	mgr := st.checkpoints[ep]
	lo, hi := epoch.PeriodInterval(ep, d.HorizonDays)
	var work []job
	for i := range d.Products {
		prod := &d.Products[i]
		if from, to := prod.Ratings.BetweenIndex(lo, hi); from == to {
			continue
		}
		m := st.prods[i].memo
		start, end := prod.Ratings.BetweenIndex(0, hi)
		if m.hit(ep, cols[i][start:end], mgr) {
			st.stats.memoHits.Add(1)
			continue
		}
		st.stats.memoMisses.Add(1)
		r := m.signals(ep, end-start, hi)
		st.stats.countSignals(r)
		work = append(work, job{i, r})
	}
	if len(work) == 0 {
		return nil // every product hit, or the epoch holds no rating
	}

	marks := make([][]bool, len(work))
	ents := make([]memoEntry, len(work))
	err := e.forEachProduct(ctx, st, len(work), func(k int, sc *detect.Scratch) {
		i := work[k].i
		prod := &d.Products[i]
		start, end := prod.Ratings.BetweenIndex(0, hi)
		seen, ords := prod.Ratings[start:end], cols[i][start:end]
		pre := e.completeSignals(seen, hi, work[k].reuse, sc, &st.prods[i].carry)
		dec := detect.Decide(seen, pre.sig, e.Detect, &seriesTrust{mgr, ords})
		// Earlier epochs already judged the ratings before lo: keep the
		// marks of only the epoch's own [lo, hi) ratings.
		from, _ := seen.BetweenIndex(lo, hi)
		marks[k] = dec.Suspicious[from:]
		ents[k] = newEntry(ords, pre, mgr)
	})
	if err != nil {
		return err
	}
	// Commit serially after the whole pool succeeded (the memo is not
	// goroutine-safe; a cancelled epoch publishes nothing).
	for k, w := range work {
		ps := &st.prods[w.i]
		from, _ := ps.series.BetweenIndex(lo, hi)
		copy(ps.causal[from:], marks[k])
		ps.memo[ep] = ents[k]
	}
	return nil
}

// fold returns checkpoint ep+1: every rating of epoch ep observed, with
// its causal mark, into a clone of checkpoint ep over the state's symbol
// table; checkpoint ep itself when the epoch holds no rating. Trust
// evidence is integer counts, so one observation per rating sums to the
// same counts as one per rater with its epoch totals, in any order: the
// product order, and whether a mark was decided, replayed from the memo
// or restored from an image (restoreDecisions), change no bit.
func (st *EvalState) fold(ep int) *trust.Manager {
	mgr := st.checkpoints[ep]
	next := mgr
	lo, hi := epoch.PeriodInterval(ep, st.horizon)
	for i := range st.prods {
		ps := &st.prods[i]
		from, to := ps.series.BetweenIndex(lo, hi)
		if from < to && next == mgr {
			next = mgr.CloneOver(st.syms)
		}
		for j, o := range ps.ords[from:to] {
			f := 0
			if ps.causal[from+j] {
				f = 1
			}
			next.ObserveAt(o, 1, f)
		}
	}
	return next
}

// job is a product a pass analyzes: its position and what its memo's
// signals tier lends the analysis.
type job struct {
	i     int
	reuse signalReuse
}

// seriesTrust is the detect.SeriesTrust the engine hands Decide: mgr's
// trust bound to one series through its ordinal column, so the MC segment
// test indexes a slice per rating instead of hashing the rater ID.
type seriesTrust struct {
	mgr  *trust.Manager
	ords []uint32 // aligned with the decided series
}

func (t *seriesTrust) Trust(id string) float64   { return t.mgr.Trust(id) }
func (t *seriesTrust) RatingTrust(i int) float64 { return t.mgr.TrustAt(t.ords[i]) }

// completeSignals returns the signals tier of series s at horizon hi:
// the parts r carries are reused, the rest computed by the trust-free
// detectors, extending the product's carried prefix pc.
func (e *Engine) completeSignals(s dataset.Series, hi float64, r signalReuse, sc *detect.Scratch, pc *detect.Prefix) prefixSignals {
	pre := r.pre
	if !r.series {
		sig := detect.SeriesSignals(s, e.Detect, sc, pc)
		pre.sig.MC, pre.sig.HC, pre.sig.ME = sig.MC, sig.HC, sig.ME
	}
	if !r.arc {
		pre.sig.HARC, pre.sig.LARC = detect.ArrivalSignals(s, hi, e.Detect, sc, pc)
		pre.arcHi = hi
	}
	return pre
}

// aggregateProduct computes one product's per-period scores (Eq. 7) from
// its full-series marks. Each period is sliced out of the sorted series by
// index, so the whole table costs O(len(s) + periods·log len(s)) instead of
// a full scan per period.
func (e *Engine) aggregateProduct(s dataset.Series, ords []uint32, susMarks []bool, horizon float64, mgr *trust.Manager) []float64 {
	scores := make([]float64, epoch.Periods(horizon))
	var kept []bool
	for i := range scores {
		lo, hi := epoch.PeriodInterval(i, horizon)
		start, end := s.BetweenIndex(lo, hi)
		scores[i], kept = e.aggregatePeriod(s[start:end], ords[start:end], susMarks[start:end], mgr, kept)
	}
	return scores
}

// aggregatePeriod scores one period (Eq. 7): marked ratings (marks and
// the ordinals ords are aligned with period) are dropped, the rest
// weighted by max(T−0.5, 0); an empty period scores NaN. kept is a
// reusable buffer, returned grown.
func (e *Engine) aggregatePeriod(period dataset.Series, ords []uint32, marks []bool, mgr *trust.Manager, kept []bool) (float64, []bool) {
	if len(period) == 0 {
		return math.NaN(), kept
	}
	weight := func(j int) float64 {
		return math.Max(mgr.TrustAt(ords[j])-0.5, 0)
	}
	if e.DisableTrustWeighting {
		weight = func(int) float64 { return 1 }
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

// forEachProduct runs fn(i) for i in [0, n) over a bounded worker pool,
// handing each worker its own detector scratch. With w = min(workers(), n)
// workers, w ≤ 1 runs every call in the current goroutine; otherwise w
// goroutines run the calls while the current goroutine only feeds them
// indices and waits. fn must only write state owned by index i and
// must not retain sc past the call. Each call is counted as analyzed in
// st's counters.
//
// Cancellation is checked before every fn call: once ctx is cancelled no
// new product analysis starts (already-running calls finish — detector
// kernels are short), remaining indices are drained and counted as
// skipped, and ctx.Err() is returned after the pool is fully quiesced, so
// the caller may discard or reuse the output slices immediately.
func (e *Engine) forEachProduct(ctx context.Context, st *EvalState, n int, fn func(i int, sc *detect.Scratch)) error {
	done := ctx.Done()
	w := e.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		sc := scratchPool.Get().(*detect.Scratch)
		for i := 0; i < n; i++ {
			if done != nil && ctx.Err() != nil {
				st.stats.skipped.Add(uint64(n - i))
				scratchPool.Put(sc)
				return ctx.Err()
			}
			fn(i, sc)
			st.stats.analyzed.Add(1)
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
					st.stats.skipped.Add(1)
					continue
				}
				fn(i, sc)
				st.stats.analyzed.Add(1)
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
