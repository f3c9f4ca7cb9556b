package detect

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/trust"
)

// cloneSignals deep-copies sig so a later comparison can prove Decide never
// wrote it.
func cloneSignals(sig Signals) Signals {
	cloneARC := func(a ARCSignals) ARCSignals {
		a.PeakDays = append([]float64(nil), a.PeakDays...)
		a.Segments = append([]ARCSegment(nil), a.Segments...)
		return a
	}
	return Signals{
		MC:   append([]MCSegment(nil), sig.MC...),
		HARC: cloneARC(sig.HARC),
		LARC: cloneARC(sig.LARC),
		HC:   append([]Interval(nil), sig.HC...),
		ME:   append([]Interval(nil), sig.ME...),
	}
}

func arcSignalsEqual(a, b ARCSignals) bool {
	if a.Band != b.Band || !bitsEqual(a.PeakDays, b.PeakDays) || len(a.Segments) != len(b.Segments) ||
		math.Float64bits(a.ThresholdA) != math.Float64bits(b.ThresholdA) ||
		math.Float64bits(a.ThresholdB) != math.Float64bits(b.ThresholdB) {
		return false
	}
	for i := range a.Segments {
		x, y := a.Segments[i], b.Segments[i]
		if x.Interval != y.Interval || x.Suspicious != y.Suspicious ||
			math.Float64bits(x.Rate) != math.Float64bits(y.Rate) {
			return false
		}
	}
	return true
}

// signalsEqual compares two Signals bit for bit.
func signalsEqual(a, b Signals) bool {
	return mcResultsEqual(MCResult{Segments: a.MC}, MCResult{Segments: b.MC}) &&
		arcSignalsEqual(a.HARC, b.HARC) && arcSignalsEqual(a.LARC, b.LARC) &&
		intervalsEqual(a.HC, b.HC) && intervalsEqual(a.ME, b.ME)
}

// splitTrustSources returns trust sources under which the MC segment test
// actually differs: one that distrusts the attackers, one that distrusts
// the honest raters, and the neutral source.
func splitTrustSources(s dataset.Series) []TrustSource {
	distrustAttack, distrustFair := trust.NewManager(), trust.NewManager()
	for _, r := range s {
		if r.Unfair {
			distrustAttack.Observe(r.Rater, 6, 6)
			distrustFair.Observe(r.Rater, 6, 0)
		} else {
			distrustAttack.Observe(r.Rater, 6, 0)
			distrustFair.Observe(r.Rater, 6, 5)
		}
	}
	return []TrustSource{distrustAttack, distrustFair, NeutralTrust()}
}

// TestDecideMatchesAnalyzeProperty: on seeded attacked series cut at random
// horizons (the prefixes the engine analyzes per epoch), Decide over the
// curve-free signals of SeriesSignals and ArrivalSignals must equal
// AnalyzeWith bit for bit in Suspicious, Intervals and the MC segments,
// under several trust sources — and deciding the same signals again under
// other trust must leave them untouched, because the engine shares cached
// signals across epochs and evaluations.
func TestDecideMatchesAnalyzeProperty(t *testing.T) {
	cfg := DefaultConfig()
	sc := NewScratch()
	trustMattered := 0
	for seed := uint64(1); seed <= 16; seed++ {
		rng := stats.NewRNG(seed)
		start := 10 + rng.Float64()*80
		mean := 1.0 + 3.5*float64(seed%2) // downgrade or boost
		s := attacked(t, seed, start, start+10+rng.Float64()*30, 20+rng.IntN(40), mean, 0.6)
		hi := 20 + rng.Float64()*(testHorizon+10)
		seen := s.Between(0, hi)

		sig := SeriesSignals(seen, cfg, sc)
		sig.HARC, sig.LARC = ArrivalSignals(seen, hi, cfg, sc)
		pristine := cloneSignals(sig)

		var first []MCSegment
		for k, ts := range splitTrustSources(seen) {
			dec := Decide(seen, sig, cfg, ts)
			rep := AnalyzeWith(seen, hi, cfg, ts, nil)
			label := fmt.Sprintf("seed %d, horizon %.2f, trust source %d", seed, hi, k)
			if len(dec.Suspicious) != len(rep.Suspicious) {
				t.Fatalf("%s: %d marks, AnalyzeWith has %d", label, len(dec.Suspicious), len(rep.Suspicious))
			}
			for i := range dec.Suspicious {
				if dec.Suspicious[i] != rep.Suspicious[i] {
					t.Fatalf("%s: mark %d differs from AnalyzeWith", label, i)
				}
			}
			if !intervalsEqual(dec.Intervals, rep.Intervals) {
				t.Fatalf("%s: intervals %v, AnalyzeWith %v", label, dec.Intervals, rep.Intervals)
			}
			decided := MCResult{Curve: rep.MC.Curve, Peaks: rep.MC.Peaks, Segments: dec.Segments}
			if !mcResultsEqual(decided, rep.MC) {
				t.Fatalf("%s: MC segments %+v, AnalyzeWith %+v", label, dec.Segments, rep.MC.Segments)
			}
			if !signalsEqual(sig, pristine) {
				t.Fatalf("%s: Decide wrote its input signals", label)
			}
			if k == 0 {
				first = dec.Segments
				continue
			}
			for i := range first {
				if first[i].Suspicious != dec.Segments[i].Suspicious {
					trustMattered++
				}
			}
		}
	}
	t.Logf("%d MC segment decisions depended on trust", trustMattered)
	// The property is only interesting if trust changed some decision.
	if trustMattered == 0 {
		t.Fatal("no MC segment decision depended on trust; the property test has no teeth")
	}
}
