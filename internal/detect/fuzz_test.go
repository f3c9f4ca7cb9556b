package detect_test

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	. "repro/internal/detect"
)

// fuzzSeries decodes fuzz bytes into a sorted rating series: two bytes per
// rating (day-gap nibble ×0.25 — gap 0 produces duplicate days — and a
// half-star value). Mirrors randomSeries in property_test.go but kept
// separate so the fuzz corpus stays decoupled from the quick.Check
// generator.
func fuzzSeries(raw []byte) dataset.Series {
	var s dataset.Series
	day := 0.0
	for i := 0; i+1 < len(raw) && len(s) < 300; i += 2 {
		day += float64(raw[i]%16) / 4
		s = append(s, dataset.Rating{
			Day:   day,
			Value: float64(raw[i+1]%11) / 2,
			Rater: string(rune('a' + i%26)),
		})
	}
	return s
}

// fuzzConfig derives a detector configuration from three fuzz bytes,
// covering degenerate windows (0, 1), steps of 0 (clamped to 1) and steps
// far beyond the window length.
func fuzzConfig(a, b, c byte) Config {
	cfg := DefaultConfig()
	cfg.HCWindowRatings = int(a % 50)
	cfg.HCStepRatings = int(b % 60)
	cfg.MEWindowRatings = int(c % 50)
	cfg.MEOrder = 1 + int(a%4)
	cfg.MCWindowDays = float64(b % 40)
	cfg.ARCWindowDays = float64(c % 40)
	return cfg
}

// FuzzKernelEquivalence throws arbitrary series and configurations at the
// incremental kernels and requires bit-exact agreement with the reference
// kernels, plus scratch-reuse hygiene (a warm Scratch must reproduce the
// fresh-buffer run exactly) and prefix extension (signals carried from
// the prefix cut at the cut byte, then extended to the whole series, must
// equal a fresh run).
func FuzzKernelEquivalence(f *testing.F) {
	f.Add([]byte{}, byte(40), byte(5), byte(40), byte(0))
	f.Add([]byte{0, 5, 0, 5, 0, 5, 0, 5}, byte(2), byte(1), byte(9), byte(2))              // duplicate days, tiny windows
	f.Add([]byte{1, 10, 2, 10, 3, 10, 4, 10, 5, 10}, byte(3), byte(50), byte(12), byte(3)) // step ≫ window
	f.Add([]byte{15, 0, 15, 0, 15, 0, 15, 0}, byte(4), byte(2), byte(4), byte(4))          // all-equal values
	f.Add([]byte{2, 9}, byte(1), byte(0), byte(0), byte(1))                                // single rating, zero windows

	sc := NewScratch()
	f.Fuzz(func(t *testing.T, raw []byte, a, b, c, cut byte) {
		s := fuzzSeries(raw)
		cfg := fuzzConfig(a, b, c)
		horizon := 1.0
		if len(s) > 0 {
			_, last := s.Span()
			horizon = last + 1
		}

		checkReference(t, "fresh", s, horizon, cfg, []TrustSource{nil})
		// Scratch hygiene: the shared warm scratch (reused across every
		// fuzz input) must reproduce the fresh-buffer run bit-for-bit.
		checkScratchReuse(t, "warm scratch", s, horizon, cfg, sc)
		var p Prefix
		k := int(cut) % (len(s) + 1)
		checkCarried(t, fmt.Sprintf("prefix of %d", k), s[:k], cfg, SeriesSignals(s[:k], cfg, sc, &p), &p)
		checkCarried(t, fmt.Sprintf("extended from %d", k), s, cfg, SeriesSignals(s, cfg, sc, &p), &p)
	})
}
