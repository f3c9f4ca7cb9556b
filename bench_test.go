package repro

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"slices"
	"sync"
	"testing"

	"repro/internal/agg"
	"repro/internal/armodel"
	"repro/internal/challenge"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/mp"
	"repro/internal/stats"
)

// The figure benchmarks run the same harnesses as cmd/benchfig at a reduced
// scale (the full 251-submission lab takes ~40 s; a benchmark iteration
// should not). benchLab is built once and shared — the per-figure work
// (scoring, searching, reordering) is what each benchmark measures.
var (
	benchOnce sync.Once
	benchLab  *experiments.Lab
	benchErr  error
)

func benchOptions() experiments.Options {
	cfg := challenge.DefaultConfig()
	cfg.Fair.Products = 5
	cfg.Fair.HorizonDays = 120
	return experiments.Options{Seed: 7, Submissions: 30, Challenge: cfg}
}

func lab(b *testing.B) *experiments.Lab {
	b.Helper()
	benchOnce.Do(func() {
		benchLab, benchErr = experiments.NewLab(benchOptions())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchLab
}

// freshLab builds an uncached lab so a benchmark measures the full scoring
// pass rather than a cache hit.
func freshLab(b *testing.B) *experiments.Lab {
	b.Helper()
	l, err := experiments.NewLab(benchOptions())
	if err != nil {
		b.Fatal(err)
	}
	return l
}

// BenchmarkFig2VarianceBiasP regenerates Figure 2: the variance–bias
// scatter of the whole population scored under the P-scheme.
func BenchmarkFig2VarianceBiasP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l := freshLab(b)
		if _, err := l.Fig2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3VarianceBiasSA regenerates Figure 3 (SA-scheme scoring).
func BenchmarkFig3VarianceBiasSA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l := freshLab(b)
		if _, err := l.Fig3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4VarianceBiasBF regenerates Figure 4 (BF-scheme scoring).
func BenchmarkFig4VarianceBiasBF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l := freshLab(b)
		if _, err := l.Fig4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5RegionSearch regenerates Figure 5: Procedure 2's
// optimum-region search against the P-scheme (reduced trial count).
func BenchmarkFig5RegionSearch(b *testing.B) {
	l := lab(b)
	cfg := core.DefaultSearchConfig()
	cfg.Trials = 2
	cfg.MaxRounds = 3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.RegionSearch("P", cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6ArrivalInterval regenerates Figure 6: the MP-vs-interval
// time-domain analysis (P-scheme scores are cached in the shared lab, so
// this measures the analysis itself plus one scoring pass on first run).
func BenchmarkFig6ArrivalInterval(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		if _, err := l.Fig6(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7Correlation regenerates Figure 7: reordering the top
// submissions' values (random and Procedure 3) and rescoring.
func BenchmarkFig7Correlation(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Correlation("P", 3, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8GeneratorHeadline regenerates the scheme-comparison
// headline: max MP under SA, BF and P across the population.
func BenchmarkFig8GeneratorHeadline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l := freshLab(b)
		if _, err := l.Fig8(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablation benches (design choices called out in DESIGN.md) ----

func benchDataset(b *testing.B) (*dataset.Dataset, *dataset.Dataset) {
	b.Helper()
	cfg := dataset.DefaultFairConfig()
	cfg.Products = 3
	cfg.HorizonDays = 120
	fair, err := dataset.GenerateFair(stats.NewRNG(3), cfg)
	if err != nil {
		b.Fatal(err)
	}
	gen := core.NewGenerator(4, core.DefaultRaters(50))
	prod, err := fair.Product("tv1")
	if err != nil {
		b.Fatal(err)
	}
	atk, err := gen.GenerateProduct(core.Profile{
		Bias: -2.5, StdDev: 0.8, Count: 50, StartDay: 40,
		DurationDays: 30, Correlation: core.Independent, Quantize: true,
	}, prod.Ratings)
	if err != nil {
		b.Fatal(err)
	}
	attacked := fair.Clone()
	if err := attacked.InjectUnfair("tv1", atk); err != nil {
		b.Fatal(err)
	}
	return fair, attacked
}

// BenchmarkAblationPScheme measures the full P-scheme pipeline (detectors +
// trust epochs + Eq. 7 aggregation) on an attacked dataset.
func BenchmarkAblationPScheme(b *testing.B) {
	_, attacked := benchDataset(b)
	p := agg.NewPScheme()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Aggregates(attacked)
	}
}

// BenchmarkAblationBFScheme measures the BF majority-filter pipeline.
func BenchmarkAblationBFScheme(b *testing.B) {
	_, attacked := benchDataset(b)
	bf := agg.NewBFScheme()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bf.Aggregates(attacked)
	}
}

// BenchmarkAblationSAScheme measures plain averaging (the no-defense
// floor every other scheme's cost is compared against).
func BenchmarkAblationSAScheme(b *testing.B) {
	_, attacked := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg.SAScheme{}.Aggregates(attacked)
	}
}

// BenchmarkAblationMPMetric measures the Manipulation Power computation.
func BenchmarkAblationMPMetric(b *testing.B) {
	fair, attacked := benchDataset(b)
	base := agg.SAScheme{}.Aggregates(fair)
	atk := agg.SAScheme{}.Aggregates(attacked)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mp.Compute(base, atk)
	}
}

// Per-detector ablations: what each stage of the Figure 1 stack costs.

func benchSeries(b *testing.B) dataset.Series {
	b.Helper()
	_, attacked := benchDataset(b)
	prod, err := attacked.Product("tv1")
	if err != nil {
		b.Fatal(err)
	}
	return prod.Ratings
}

// BenchmarkDetectorMC, BenchmarkDetectorHC and BenchmarkDetectorME run
// their kernels alone in internal/detect's hotpath_bench_test.go, on an
// attacked series of the same shape.

// BenchmarkDetectorARC measures the H-ARC/L-ARC pair on fresh buffers.
func BenchmarkDetectorARC(b *testing.B) {
	s := benchSeries(b)
	cfg := detect.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		detect.ArrivalSignals(s, 120, cfg, detect.NewScratch(), nil)
	}
}

// benchFusion runs the full stack on s — the trust-free detector signals
// (all four detectors), then Decide's two-path fusion — on scratch sc
// (nil: fresh buffers each run).
func benchFusion(b *testing.B, s dataset.Series, sc *detect.Scratch) {
	cfg := detect.DefaultConfig()
	run := func(sc *detect.Scratch) {
		if sc == nil {
			sc = detect.NewScratch()
		}
		sig := detect.SeriesSignals(s, cfg, sc, nil)
		sig.HARC, sig.LARC = detect.ArrivalSignals(s, 120, cfg, sc, nil)
		detect.Decide(s, sig, cfg, nil)
	}
	run(sc) // warm the buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(sc)
	}
}

// BenchmarkDetectorFusion measures the full stack on fresh buffers.
func BenchmarkDetectorFusion(b *testing.B) { benchFusion(b, benchSeries(b), nil) }

// BenchmarkDetectorFusionWarm measures the full stack on a caller-owned
// warm scratch — the shape the engine's per-product fan-out runs in, where
// the window buffers are reused across every product in a worker's batch.
func BenchmarkDetectorFusionWarm(b *testing.B) {
	benchFusion(b, benchSeries(b), detect.NewScratch())
}

// BenchmarkGeneratorAttack measures generating one 50-rating attack
// (value set + time set + mapper + rater assignment).
func BenchmarkGeneratorAttack(b *testing.B) {
	fair, _ := benchDataset(b)
	prod, err := fair.Product("tv1")
	if err != nil {
		b.Fatal(err)
	}
	profile := core.Profile{
		Bias: -2.3, StdDev: 1.5, Count: 50, StartDay: 40,
		DurationDays: 30, Correlation: core.HeuristicAnti, Quantize: true,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen := core.NewGenerator(uint64(i), core.DefaultRaters(50))
		if _, err := gen.GenerateProduct(profile, prod.Ratings); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFairDataGeneration measures synthesizing the challenge's fair
// dataset.
func BenchmarkFairDataGeneration(b *testing.B) {
	cfg := dataset.DefaultFairConfig()
	cfg.Products = 5
	cfg.HorizonDays = 120
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.GenerateFair(stats.NewRNG(uint64(i)), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPSchemeFilterOnly measures the P-scheme with trust
// weighting disabled (rating filter alone).
func BenchmarkAblationPSchemeFilterOnly(b *testing.B) {
	_, attacked := benchDataset(b)
	p := agg.NewPScheme()
	p.DisableTrustWeighting = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Aggregates(attacked)
	}
}

// BenchmarkAblationPSchemeTrustOnly measures the P-scheme with the rating
// filter disabled (Eq. 7 trust weighting alone).
func BenchmarkAblationPSchemeTrustOnly(b *testing.B) {
	_, attacked := benchDataset(b)
	p := agg.NewPScheme()
	p.DisableFilter = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Aggregates(attacked)
	}
}

// ---- Epoch-engine benches (see BENCH_engine.json for recorded baselines) ----

// benchEngineDataset builds a larger workload than benchDataset — more
// products and a longer horizon (10 trust epochs at 300 days) — so the
// engine's epoch structure and per-product parallelism have something to
// bite on.
func benchEngineDataset(b *testing.B, products int, horizon float64) *dataset.Dataset {
	b.Helper()
	cfg := dataset.DefaultFairConfig()
	cfg.Products = products
	cfg.HorizonDays = horizon
	d, err := dataset.GenerateFair(stats.NewRNG(11), cfg)
	if err != nil {
		b.Fatal(err)
	}
	gen := core.NewGenerator(4, core.DefaultRaters(50))
	prod, err := d.Product("tv1")
	if err != nil {
		b.Fatal(err)
	}
	atk, err := gen.GenerateProduct(core.Profile{
		Bias: -2.5, StdDev: 0.8, Count: 50, StartDay: horizon * 0.3,
		DurationDays: 30, Correlation: core.Independent, Quantize: true,
	}, prod.Ratings)
	if err != nil {
		b.Fatal(err)
	}
	if err := d.InjectUnfair("tv1", atk); err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkEvaluateColdVsWarm contrasts a full from-scratch P-scheme
// evaluation with the incremental paths the server takes after ratings
// arrive: resume from a surviving checkpoint, replay unchanged products
// from the memo plane, and re-analyze only what a submit actually touched.
func BenchmarkEvaluateColdVsWarm(b *testing.B) {
	d := benchEngineDataset(b, 5, 300)
	eng := &engine.Engine{Detect: detect.DefaultConfig(), Workers: 1}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng.Evaluate(context.Background(), d)
		}
	})
	// warm-unchanged: a Resume with nothing changed, the floor a
	// recompute costs. Every series header is unchanged, so no series is
	// compared, no epoch re-runs and the final pass replays every product
	// from the memo.
	b.Run("warm-unchanged", func(b *testing.B) {
		st := engine.NewState()
		eng.Resume(context.Background(), st, d) // prime checkpoints + memo
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Resume(context.Background(), st, d)
		}
	})
	// warm-single-product-touch: the serving-path unit of work — one new
	// rating by a fresh rater lands late in one product's history. The
	// memo replays every untouched product; only the touched product is
	// re-analyzed (once for the dirty epoch, once for the final pass).
	// Every iteration inserts into the same base series (capacity-clipped,
	// so Insert copies it) into a new header, and the rater is the same
	// one each time: it is fresh to the data, and the state's append-only
	// symbol table does not grow with b.N. The rating's value alternates,
	// so every iteration's series differs from the last one at the new
	// rating: the product's stored detector carry is cut back by that one
	// rating and re-extended, instead of covering identical content and
	// computing nothing after the first iteration. So every iteration does
	// the same work, except that only the first interns the rater and
	// forks the table: the row carries that fork as 1/b.N of one, and
	// warm-live-tail pays one in every iteration.
	b.Run("warm-single-product-touch", func(b *testing.B) {
		dd := benchEngineDataset(b, 5, 300)
		st := engine.NewState()
		eng.Resume(context.Background(), st, dd)
		day := dd.HorizonDays - 2
		prod, err := dd.Product("tv2")
		if err != nil {
			b.Fatal(err)
		}
		base := slices.Clip(prod.Ratings)
		late := dataset.Rating{Day: day, Rater: "late"}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			late.Value = float64(2 + 2*(i%2))
			prod.Ratings = base.Insert(late)
			eng.Resume(context.Background(), st, dd)
		}
	})
	// warm-mid-history-touch: warm-single-product-touch's edit moved to
	// day 150, so the epochs from there on re-run (5 of 10): the touched
	// product is re-analyzed in each and in the final pass, and the other
	// four products replay from the memo wherever their raters' trust is
	// unchanged. Same protocol: a clipped base, one reused rater and an
	// alternating value, so the per-op cost does not depend on b.N.
	b.Run("warm-mid-history-touch", func(b *testing.B) {
		dd := benchEngineDataset(b, 5, 300)
		st := engine.NewState()
		eng.Resume(context.Background(), st, dd)
		prod, err := dd.Product("tv2")
		if err != nil {
			b.Fatal(err)
		}
		base := slices.Clip(prod.Ratings)
		mid := dataset.Rating{Day: dd.HorizonDays / 2, Rater: "mid"}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mid.Value = float64(2 + 2*(i%2))
			prod.Ratings = base.Insert(mid)
			eng.Resume(context.Background(), st, dd)
		}
	})
	// warm-live-tail: a live service's submit. The history ends at
	// mid-horizon, so epochs 5-9 hold no ratings, and one rating by a
	// rater the state has not seen lands at the tail, in epoch 5. The
	// Resume forks the symbol table the earlier Results read, re-runs
	// epoch 5 into one clone of its checkpoint, appends that clone again
	// for each of the four empty epochs after it, and re-analyzes the
	// touched product's final pass. Each iteration primes a fresh state
	// outside the timer: a cold Resume of the clipped history, then one
	// with a first tail rating by another new rater, whose fork flattens
	// the cold table into a shared base. So the measured fork is the
	// steady state's, an overlay of one name, and every iteration does the
	// same work: the per-op cost does not depend on b.N. The measured
	// Resume runs under the profiler label bench=warm-live-tail, which the
	// engine's pool goroutines inherit, so a CPU profile of the benchmark
	// keeps it apart from the priming with -tagfocus=bench=warm-live-tail.
	b.Run("warm-live-tail", func(b *testing.B) {
		dd := benchEngineDataset(b, 5, 300)
		mid := dd.HorizonDays / 2
		for i := range dd.Products {
			p := &dd.Products[i]
			end, _ := p.Ratings.BetweenIndex(mid, dd.HorizonDays)
			p.Ratings = slices.Clip(p.Ratings[:end])
		}
		prod, err := dd.Product("tv2")
		if err != nil {
			b.Fatal(err)
		}
		base := prod.Ratings
		labelled := pprof.WithLabels(context.Background(), pprof.Labels("bench", "warm-live-tail"))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st := engine.NewState()
			for _, r := range []dataset.Rating{{Day: mid, Value: 4, Rater: "first"}, {Day: mid + 1, Value: 2, Rater: "tail"}} {
				eng.Resume(context.Background(), st, dd)
				prod.Ratings = prod.Ratings.Insert(r)
			}
			b.StartTimer()
			pprof.SetGoroutineLabels(labelled)
			eng.Resume(context.Background(), st, dd)
			pprof.SetGoroutineLabels(context.Background())
			prod.Ratings = base
		}
	})
	// image-encode: what a durable service's Close encodes under the
	// coordinator lock, EvalState.Image of the cold state: the rater
	// dictionary, every product's rating columns, its signals tiers and
	// its decisions.
	b.Run("image-encode", func(b *testing.B) {
		st := engine.NewState()
		eng.Resume(context.Background(), st, d)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.Image(context.Background())
		}
	})
	// restored: a restarted service's first report. Each iteration
	// restores one fixed image (the signals tiers and the decisions of a
	// cold state) into a fresh state and resumes it. The image describes
	// the data exactly, so the restore rebuilds the checkpoints from the
	// image's marks and the Resume replays every product from the memo: no
	// Decide, no detector, no Eq. 7. Every iteration does the same work.
	// restored-stale: the same image restored after one tail rating landed
	// in one product, so the restore is signals-only: every epoch and the
	// final pass re-run with the detector signals reused wherever their
	// prefix is unchanged, and Decide, the folds and Eq. 7 execute.
	stale := d.Clone()
	if prod, err := stale.Product("tv2"); err != nil {
		b.Fatal(err)
	} else {
		prod.Ratings = prod.Ratings.Insert(dataset.Rating{Day: stale.HorizonDays - 1, Value: 4, Rater: "tail"})
	}
	for _, row := range []struct {
		name string
		d    *dataset.Dataset
	}{{"restored", d}, {"restored-stale", stale}} {
		b.Run(row.name, func(b *testing.B) {
			st := engine.NewState()
			eng.Resume(context.Background(), st, d)
			img := st.Image(context.Background())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := engine.NewState()
				if _, _, err := eng.Restore(context.Background(), st, row.d, img); err != nil {
					b.Fatal(err)
				}
				eng.Resume(context.Background(), st, row.d)
			}
		})
	}
}

// BenchmarkEvaluateParallel measures the same cold evaluation with the
// per-product fan-out disabled (1 worker) and at full width.
func BenchmarkEvaluateParallel(b *testing.B) {
	d := benchEngineDataset(b, 8, 300)
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			eng := &engine.Engine{Detect: detect.DefaultConfig(), Workers: w}
			for i := 0; i < b.N; i++ {
				eng.Evaluate(context.Background(), d)
			}
		})
	}
}

// ---- Substrate micro-benchmarks ----

// BenchmarkSingleLinkage measures the HC detector's clustering backend at
// the paper's window size (40 ratings).
func BenchmarkSingleLinkage(b *testing.B) {
	rng := stats.NewRNG(1)
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = rng.Float64() * 5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.SingleLinkage(xs, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkARFitMethods compares the three AR estimators at the paper's
// window size (40 ratings, order 4).
func BenchmarkARFitMethods(b *testing.B) {
	rng := stats.NewRNG(2)
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = 4 + rng.NormFloat64()*0.6
	}
	for _, m := range []armodel.Method{armodel.Covariance, armodel.Autocorrelation, armodel.Burg} {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := armodel.FitMethod(xs, 4, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBetaCDF measures the incomplete-beta evaluation behind the
// Whitby quantile filter.
func BenchmarkBetaCDF(b *testing.B) {
	dist := stats.Beta{Alpha: 1.8, Beta: 1.2}
	for i := 0; i < b.N; i++ {
		dist.CDF(0.7)
	}
}

// BenchmarkGLRTStatistics measures the two hypothesis-test kernels.
func BenchmarkGLRTStatistics(b *testing.B) {
	rng := stats.NewRNG(3)
	x1 := make([]float64, 50)
	x2 := make([]float64, 50)
	for i := range x1 {
		x1[i] = rng.NormFloat64()
		x2[i] = rng.NormFloat64() + 1
	}
	b.Run("mean-change", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stats.MeanChangeGLRT(x1, x2, 1)
		}
	})
	b.Run("rate-change", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stats.RateChangeGLRT(x1, x2)
		}
	})
}
