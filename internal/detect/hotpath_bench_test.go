package detect

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/stats"
)

// The benchmarks and the alloc-free guard below back the //lint:hotpath
// annotations in this package: hotalloc proves statically that the kernels
// cannot allocate or lock, and AllocsPerRun proves it at runtime, so the
// two gates cross-check each other.

func hotpathSeries(n int) dataset.Series {
	s := make(dataset.Series, n)
	for i := range s {
		s[i] = dataset.Rating{Day: float64(i), Value: 1 + float64(i%9)*0.5}
	}
	return s
}

func hotpathSorted(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i) * 0.5
	}
	return xs
}

func TestHotpathKernelsAllocFree(t *testing.T) {
	s := hotpathSeries(256)
	x1, x2 := s[:128], s[128:]
	sorted := hotpathSorted(64)
	iv := Interval{Start: 32, End: 96}
	sums, peak := NewScratch().bandSums(s, 300, HighBand, 1.5, 3)
	var c arcCarry
	c.update(sums, 15)
	hist := make([]int32, peak+1)
	kernels := map[string]func(){
		"seriesMean":           func() { seriesMean(s) },
		"seriesSum":            func() { seriesSum(s) },
		"seriesPooledVariance": func() { seriesPooledVariance(x1, x2, 2, 3, 1) },
		"meanChangeGLRT":       func() { meanChangeGLRT(len(x1), len(x2), 2, 3, 1) },
		"sortedGapRatio":       func() { sortedGapRatio(sorted, 0.1) },
		"contextMean":          func() { contextMean(s, iv) },
		"BandThresholds":       func() { BandThresholds(3.5) },
		"arcCurveUpdate":       func() { arcCurveUpdate(c.y, c.counts[:200], sums, 15) },
		"QuantileCounts":       func() { stats.QuantileCounts(c.counts, 0.25, hist) },
	}
	for name, fn := range kernels {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("hotpath kernel %s: %v allocs/op, want 0", name, allocs)
		}
	}
}

func BenchmarkSeriesMean(b *testing.B) {
	s := hotpathSeries(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seriesMean(s)
	}
}

func BenchmarkSeriesPooledVariance(b *testing.B) {
	s := hotpathSeries(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seriesPooledVariance(s[:128], s[128:], seriesMean(s[:128]), seriesMean(s[128:]), 1)
	}
}

// BenchmarkMCCurve times a cold MC sweep: both window means, the pooled
// variance and the GLRT at every point of a 1,024-rating series.
func BenchmarkMCCurve(b *testing.B) {
	s := hotpathSeries(1024)
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mcExtend(s, cfg, Curve{})
	}
}

// detectorBenchSeries returns the series of the root package's detector
// benches (benchSeries): one 120-day fair product, about 500 ratings, with
// a 50-rating downward attack injected over days 40–70.
func detectorBenchSeries(b *testing.B) dataset.Series {
	b.Helper()
	cfg := dataset.DefaultFairConfig()
	cfg.Products = 3
	cfg.HorizonDays = 120
	d, err := dataset.GenerateFair(stats.NewRNG(3), cfg)
	if err != nil {
		b.Fatal(err)
	}
	prod, err := d.Product("tv1")
	if err != nil {
		b.Fatal(err)
	}
	atk, err := core.NewGenerator(4, core.DefaultRaters(50)).GenerateProduct(core.Profile{
		Bias: -2.5, StdDev: 0.8, Count: 50, StartDay: 40,
		DurationDays: 30, Correlation: core.Independent, Quantize: true,
	}, prod.Ratings)
	if err != nil {
		b.Fatal(err)
	}
	if err := d.InjectUnfair("tv1", atk); err != nil {
		b.Fatal(err)
	}
	return prod.Ratings
}

// The DetectorMC, DetectorHC and DetectorME benches run one detector's
// kernel the way SeriesSignals does from an empty carry, on fresh scratch
// buffers each time: the values of every window, then the segments or the
// merged suspicious windows.

// BenchmarkDetectorMC measures the mean-change detector: the MC curve
// sweep, its peaks and the segments between them.
func BenchmarkDetectorMC(b *testing.B) {
	s := detectorBenchSeries(b)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mcSegments(s, cfg, mcExtend(s, cfg, Curve{}))
	}
}

// BenchmarkDetectorHC measures the histogram-change detector (single-linkage
// clustering per window).
func BenchmarkDetectorHC(b *testing.B) {
	s := detectorBenchSeries(b)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hcIntervals(s, cfg, hcExtend(NewScratch(), s, cfg, nil))
	}
}

// BenchmarkDetectorME measures the AR-model-error detector (covariance
// method fit per window).
func BenchmarkDetectorME(b *testing.B) {
	s := detectorBenchSeries(b)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		meIntervals(s, cfg, meExtend(NewScratch(), s, cfg, nil))
	}
}

func BenchmarkSortedGapRatio(b *testing.B) {
	sorted := hotpathSorted(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sortedGapRatio(sorted, 0.1)
	}
}

func BenchmarkContextMean(b *testing.B) {
	s := hotpathSeries(256)
	iv := Interval{Start: 32, End: 96}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		contextMean(s, iv)
	}
}

// arrivalBenchSeries returns a 300-day product with one to six ratings a
// day, whose values cycle to a mean near 3.8, clear of any band-threshold
// boundary, and the index of a day-150 rating valued 1.
func arrivalBenchSeries() (dataset.Series, int) {
	cycle := []float64{4, 4.5, 3.5, 5, 3, 2.5, 4}
	var s dataset.Series
	at := -1
	for day := 0; day < 300; day++ {
		for j := 0; j < 1+day*7%6; j++ {
			r := dataset.Rating{Day: float64(day) + float64(j)/8, Value: cycle[len(s)%len(cycle)]}
			if day == 150 && at < 0 {
				at, r.Value = len(s), 1
			}
			s = append(s, r)
		}
	}
	return s, at
}

// benchArrivalSignals times ArrivalSignals over arrivalBenchSeries, the
// carry p kept across iterations (nil: a fresh run each). Each iteration
// first toggles the day-150 rating between 1 (L-ARC) and 5 (H-ARC), so
// both bands' counts change on one day and the thresholds stay put: a
// carried run recomputes the 2D curve points around that day, and the
// per-op cost does not depend on b.N.
func benchArrivalSignals(b *testing.B, p *Prefix) {
	s, at := arrivalBenchSeries()
	cfg := DefaultConfig()
	sc := NewScratch()
	ArrivalSignals(s, 300, cfg, sc, p) // warm the scratch and the carry
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s[at].Value = 6 - s[at].Value
		ArrivalSignals(s, 300, cfg, sc, p)
	}
}

func BenchmarkArrivalSignalsCarried(b *testing.B) { benchArrivalSignals(b, new(Prefix)) }

func BenchmarkArrivalSignalsFresh(b *testing.B) { benchArrivalSignals(b, nil) }
