package detect

import (
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// randomSeries builds an arbitrary (but valid) rating series from fuzz
// bytes: one rating per byte pair, quantized values, ordered days.
func randomSeries(raw []byte) dataset.Series {
	var s dataset.Series
	day := 0.0
	for i := 0; i+1 < len(raw); i += 2 {
		day += float64(raw[i]%16) / 4 // 0–3.75 day gaps
		s = append(s, dataset.Rating{
			Day:   day,
			Value: float64(raw[i+1]%11) / 2,
			Rater: string(rune('a' + i%26)),
		})
	}
	return s
}

// Property: every suspicious mark lies inside a reported interval, and the
// suspicious count never exceeds the series length.
func TestAnalyzeMarksInsideIntervalsProperty(t *testing.T) {
	cfg := DefaultConfig()
	f := func(raw []byte) bool {
		s := randomSeries(raw)
		horizon := 1.0
		if len(s) > 0 {
			_, last := s.Span()
			horizon = last + 1
		}
		_, rep, _ := analyze(s, horizon, cfg, nil, NewScratch())
		if len(rep.Suspicious) != len(s) {
			return false
		}
		for i, marked := range rep.Suspicious {
			if !marked {
				continue
			}
			inside := false
			for _, iv := range rep.Intervals {
				if iv.Contains(s[i].Day) {
					inside = true
					break
				}
			}
			if !inside {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: detector outputs are deterministic — the same series yields the
// same report.
func TestAnalyzeDeterministicProperty(t *testing.T) {
	cfg := DefaultConfig()
	f := func(seed uint16) bool {
		rng := stats.NewRNG(uint64(seed))
		raw := make([]byte, 160)
		for i := range raw {
			raw[i] = byte(rng.UintN(256))
		}
		s := randomSeries(raw)
		_, last := s.Span()
		_, a, _ := analyze(s, last+1, cfg, nil, NewScratch())
		_, b, _ := analyze(s, last+1, cfg, nil, NewScratch())
		if countMarks(a.Suspicious) != countMarks(b.Suspicious) || len(a.Intervals) != len(b.Intervals) {
			return false
		}
		for i := range a.Suspicious {
			if a.Suspicious[i] != b.Suspicious[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: MC segments always tile the series span (no rating outside all
// segments) for arbitrary data.
func TestMCSegmentsTileProperty(t *testing.T) {
	cfg := DefaultConfig()
	f := func(raw []byte) bool {
		s := randomSeries(raw)
		if len(s) == 0 {
			return true
		}
		sig := SeriesSignals(s, cfg, NewScratch(), nil)
		covered := 0
		for _, seg := range sig.MC {
			covered += len(s.Between(seg.Interval.Start, seg.Interval.End))
		}
		return covered == len(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
