package detect_test

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/dataset"
	. "repro/internal/detect"
	"repro/internal/reference"
	"repro/internal/stats"
)

// checkCarried requires the signals got, computed for s through a carried
// Prefix p, to equal a fresh SeriesSignals bit for bit, and p's carried
// per-position values and the signals to equal the reference kernels'.
func checkCarried(t *testing.T, label string, s dataset.Series, cfg Config, got Signals, p *Prefix) {
	t.Helper()
	if fresh := SeriesSignals(s, cfg, NewScratch(), nil); !signalsEqual(got, fresh) {
		t.Fatalf("%s: carried signals %+v, fresh %+v", label, got, fresh)
	}
	if mc, _, _, _, _ := p.Curves(cfg); !curvesEqual(mc, reference.MCCurve(s, cfg)) {
		t.Fatalf("%s: carried MC curve diverges from reference.MCCurve", label)
	}
	mc := reference.MeanChange(s, cfg, nil)
	if len(got.MC) != len(mc) {
		t.Fatalf("%s: %d MC segments, reference.MeanChange has %d", label, len(got.MC), len(mc))
	}
	for i, seg := range mc {
		seg.AvgTrust, seg.Suspicious = 0, false // Decide's fields
		if !segmentsEqual(got.MC[i:i+1], []MCSegment{seg}) {
			t.Fatalf("%s: MC segment %d is %+v, reference.MeanChange %+v", label, i, got.MC[i], seg)
		}
	}
	_, _, _, hc, me := p.Curves(cfg)
	if want, ivs := reference.HistogramChange(s, cfg); !curvesEqual(hc, want) || !intervalsEqual(got.HC, ivs) {
		t.Fatalf("%s: carried HC diverges from reference.HistogramChange", label)
	}
	if want, ivs := reference.ModelError(s, cfg); !curvesEqual(me, want) || !intervalsEqual(got.ME, ivs) {
		t.Fatalf("%s: carried ME diverges from reference.ModelError", label)
	}
}

// arcHorizons names the horizon moves nextHorizon makes, in kind order.
var arcHorizons = [...]string{"shorter", "equal", "longer"}

// nextHorizon returns the horizon after hi for the move kind%3 (an index
// into arcHorizons), scaled by the byte v: a shorter one clips the
// carried counts, an equal one keeps them, a longer one extends them.
func nextHorizon(hi float64, kind, v byte) (float64, int) {
	switch k := int(kind) % len(arcHorizons); k {
	case 0:
		return hi * float64(v) / 256, k
	case 1:
		return hi, k
	default:
		return hi + float64(v%64)/2, k
	}
}

// arcWalk tracks a carry's ARC calls for the property tests' teeth: the
// horizon moves made, and the calls whose series mean crossed 4.0 since
// the previous one while a 2.0 rating sat inside the horizon, which moves
// that rating across threshold_a = 0.5·mean and so in or out of H-ARC.
type arcWalk struct {
	horizons  [len(arcHorizons)]int
	crossings int
	below     bool // the previous call's mean was below 4.0
}

// check runs checkArrivalCarried and counts the call.
func (w *arcWalk) check(t *testing.T, label string, s dataset.Series, hi float64, cfg Config, sc *Scratch, p *Prefix) {
	t.Helper()
	below := s.Mean() < 4
	if below != w.below && slices.ContainsFunc(s, func(r dataset.Rating) bool { return r.Value == 2 && r.Day < hi }) {
		w.crossings++
	}
	w.below = below
	checkArrivalCarried(t, label, s, hi, cfg, sc, p)
}

// teeth fails the test unless the walk made every horizon move and at
// least one threshold crossing.
func (w *arcWalk) teeth(t *testing.T) {
	t.Helper()
	t.Logf("ARC horizons %v of %v; %d mean crossings of 4.0 over a 2.0 rating", w.horizons, arcHorizons, w.crossings)
	for k, n := range w.horizons {
		if n == 0 {
			t.Fatalf("the walk never moved the horizon %s; the property test has lost its teeth", arcHorizons[k])
		}
	}
	if w.crossings == 0 {
		t.Fatal("no series mean crossed 4.0 over a 2.0 rating; the property test has lost its teeth")
	}
}

// checkArrivalCarried requires ArrivalSignals through the carry p at
// horizon hi to equal a fresh call bit for bit, and p's carried band
// counts and curves to equal the reference kernels'.
func checkArrivalCarried(t *testing.T, label string, s dataset.Series, hi float64, cfg Config, sc *Scratch, p *Prefix) {
	t.Helper()
	high, low := ArrivalSignals(s, hi, cfg, sc, p)
	freshHigh, freshLow := ArrivalSignals(s, hi, cfg, NewScratch(), nil)
	for i, band := range [2]ARCBand{HighBand, LowBand} {
		got, fresh := high, freshHigh
		if band == LowBand {
			got, fresh = low, freshLow
		}
		if !arcSignalsEqual(got, fresh) {
			t.Fatalf("%s, horizon %v: carried %v signals %+v, fresh %+v", label, hi, band, got, fresh)
		}
		if want := reference.ArrivalRateChange(s, hi, band, cfg); !arcSignalsEqual(got, want) {
			t.Fatalf("%s, horizon %v: %v signals %+v, reference.ArrivalRateChange %+v", label, hi, band, got, want)
		}
		_, high, low, _, _ := p.Curves(cfg)
		curve := [2]Curve{high, low}[i]
		if !bitsEqual(curve.Y, reference.ARCCurve(s, hi, band, cfg).Y) || !bitsEqual(CarriedARCCounts(p, i), reference.BandCounts(s, hi, band)) {
			t.Fatalf("%s, horizon %v: carried %v curve or counts diverge from the reference", label, hi, band)
		}
	}
}

// nearFourSeries returns n ratings, about three a day, whose values
// (5, 5, 4, 4, 4, 2 in a shuffled cycle) average exactly 4.0: threshold_a
// = 0.5·mean sits on the 2.0 ratings, so an edit that moves the mean
// across 4.0 moves every 2.0 rating in or out of the H-ARC band.
func nearFourSeries(rng *rand.Rand, n int) dataset.Series {
	cycle := []float64{5, 5, 4, 4, 4, 2}
	s := make(dataset.Series, n)
	for i := range s {
		if i%len(cycle) == 0 {
			rng.Shuffle(len(cycle), func(a, b int) { cycle[a], cycle[b] = cycle[b], cycle[a] })
		}
		s[i] = dataset.Rating{Day: float64(i) / 3, Value: cycle[i%len(cycle)], Rater: fmt.Sprintf("r%02d", i%31)}
	}
	return s
}

// TestPrefixExtensionProperty carries one Prefix over a random walk of cut
// points of a series — growing the way a Resume's epochs grow a product's
// prefix, but also standing still, shrinking (a truncation) and cutting
// inside runs of equal days, which epoch prefixes never do. On every prefix the
// carried signals must match a fresh SeriesSignals and the reference
// kernels bit for bit. Attacked series exercise live detector signals;
// the kernel-equivalence series and configurations exercise the corners
// (duplicate days, degenerate windows, steps beyond the window).
func TestPrefixExtensionProperty(t *testing.T) {
	sc := NewScratch()
	var inRun, short, same, reset, grown int
	for seed := uint64(1); seed <= 40; seed++ {
		rng := stats.NewRNG(seed)
		cfg := DefaultConfig()
		var s dataset.Series
		if seed%2 == 0 {
			start := 10 + rng.Float64()*80
			mean := 1.0 + 3.5*float64(seed/2%2) // downgrade or boost
			s = Attacked(t, seed, start, start+10+rng.Float64()*30, 20+rng.IntN(40), mean, 0.6)
		} else {
			s = equivSeries(rng, int(seed/2), 30+int(rng.UintN(270)))
			cfg = equivConfig(rng)
		}
		window := cfg.HCWindowRatings
		if cfg.MEWindowRatings > window {
			window = cfg.MEWindowRatings
		}
		var p Prefix
		k := 0
		for step := 0; step < 14; step++ {
			prev := k
			switch {
			case step == 13:
				k = len(s)
			case rng.UintN(6) == 0:
				// unchanged prefix
			case rng.UintN(6) == 0 && k > 0:
				k = rng.IntN(k) // shorter: the carry is truncated
			default:
				k += 1 + rng.IntN(len(s)/6+1)
			}
			if k > len(s) {
				k = len(s)
			}
			switch {
			case k == prev:
				same++
			case k < prev:
				reset++
			default:
				grown++
			}
			if k < window {
				short++
			}
			if k > 0 && k < len(s) && !(s[k-1].Day < s[k].Day) {
				inRun++
			}
			label := fmt.Sprintf("seed %d, step %d, prefix %d of %d (from %d)", seed, step, k, len(s), prev)
			checkCarried(t, label, s[:k], cfg, SeriesSignals(s[:k], cfg, sc, &p), &p)
		}
	}
	t.Logf("cuts: %d grown, %d unchanged, %d shorter, %d inside equal-day runs, %d shorter than a window",
		grown, same, reset, inRun, short)
	if inRun == 0 || short == 0 || same == 0 || reset == 0 || grown == 0 {
		t.Fatal("the cut walk missed a case; the property test has lost its teeth")
	}
}

// editKinds names the series edits applyEdit makes, in op order.
var editKinds = [...]string{"tail append", "out-of-order insert", "same-day tie", "value change", "cut", "delete"}

// applyEdit returns s with one edit applied and the edit's kind (an index
// into editKinds): op picks the edit, pos the rating it lands at and v the
// new value or the day offset. Inserts go through Series.Insert on a
// capacity-clipped view, so s itself is never written.
func applyEdit(s dataset.Series, op, pos, v byte) (dataset.Series, int) {
	kind := int(op) % len(editKinds)
	if len(s) == 0 {
		kind = 0
	}
	k := int(pos) % max(len(s), 1)
	r := dataset.Rating{Value: float64(v%11) / 2, Rater: "edit"}
	switch kind {
	case 0:
		if len(s) > 0 {
			r.Day = s[len(s)-1].Day + float64(v%8)/4 // gap 0 ties the tail
		}
	case 1:
		r.Day = s[k].Day - float64(v%8+1)/8
	case 2:
		r.Day = s[k].Day
	case 3:
		c := slices.Clone(s)
		if c[k].Value == r.Value {
			r.Value = float64((v+1)%11) / 2
		}
		c[k].Value = r.Value
		return c, kind
	case 4:
		return s[:k:k], kind
	case 5:
		return append(slices.Clone(s[:k]), s[k+1:]...), kind
	}
	return slices.Clip(s).Insert(r), kind
}

// TestPrefixEditProperty walks one carry over random edit sequences of a
// series — in-order tail appends, out-of-order inserts, same-day ties,
// value-only changes, cuts and deletions — the way a stored carry meets
// its product again on the next Resume. After every edit the carry is
// rewound to the new series, sometimes brought up to one of its prefixes
// first (an epoch's), and then to the whole series; every step must match
// a fresh SeriesSignals and the reference kernels bit for bit. Each step
// also runs the carried ArrivalSignals at a horizon shorter than, equal
// to or longer than the last one, against a fresh call and the reference.
// A third of the series average exactly 4.0, so the edits move their
// mean, and with it threshold_a, across the 2.0 ratings.
func TestPrefixEditProperty(t *testing.T) {
	sc := NewScratch()
	var kinds [len(editKinds)]int
	var walk arcWalk
	viaPrefix, clamped := 0, 0
	for seed := uint64(1); seed <= 36; seed++ {
		rng := stats.NewRNG(seed + 100)
		cfg := DefaultConfig()
		var s dataset.Series
		switch seed % 3 {
		case 0:
			start := 10 + rng.Float64()*80
			s = Attacked(t, seed, start, start+10+rng.Float64()*30, 20+rng.IntN(40), 1.0+3.5*float64(seed/3%2), 0.6)
		case 1:
			s = equivSeries(rng, int(seed/3), 30+int(rng.UintN(200)))
			cfg = equivConfig(rng)
		default:
			s = nearFourSeries(rng, 40+int(rng.UintN(160)))
			cfg = equivConfig(rng)
		}
		if cfg.ARCWindowDays/2 < 3 {
			clamped++
		}
		hi := 1.0
		if len(s) > 0 {
			hi += s[len(s)-1].Day
		}
		var p Prefix
		checkCarried(t, fmt.Sprintf("seed %d, start", seed), s, cfg, SeriesSignals(s, cfg, sc, &p), &p)
		walk.check(t, fmt.Sprintf("seed %d, start", seed), s, hi, cfg, sc, &p)
		for step := 0; step < 12; step++ {
			var kind, move int
			s, kind = applyEdit(s, byte(rng.UintN(256)), byte(rng.UintN(256)), byte(rng.UintN(256)))
			kinds[kind]++
			label := fmt.Sprintf("seed %d, step %d, %s, %d ratings", seed, step, editKinds[kind], len(s))
			p.Rewind(s, cfg)
			if len(s) > 0 && rng.UintN(3) == 0 {
				j := rng.IntN(len(s))
				checkCarried(t, label+fmt.Sprintf(", prefix %d", j), s[:j], cfg, SeriesSignals(s[:j], cfg, sc, &p), &p)
				walk.check(t, label+fmt.Sprintf(", prefix %d", j), s[:j], s[j].Day, cfg, sc, &p)
				viaPrefix++
			}
			checkCarried(t, label, s, cfg, SeriesSignals(s, cfg, sc, &p), &p)
			hi, move = nextHorizon(hi, byte(rng.UintN(256)), byte(rng.UintN(256)))
			walk.horizons[move]++
			walk.check(t, label, s, hi, cfg, sc, &p)
		}
	}
	t.Logf("edits %v of %v; %d analyzed a prefix first; %d configs clamp D to 3", kinds, editKinds, viaPrefix, clamped)
	for kind, n := range kinds {
		if n == 0 {
			t.Fatalf("the edit walk made no %s; the property test has lost its teeth", editKinds[kind])
		}
	}
	if viaPrefix == 0 || clamped == 0 {
		t.Fatal("the edit walk never analyzed a prefix first or never clamped D; the property test has lost its teeth")
	}
	walk.teeth(t)
}

// FuzzPrefixEdit is TestPrefixEditProperty on fuzzed input: a series, a
// configuration and a sequence of edits (four bytes each: three as
// applyEdit reads them, one for nextHorizon). The carry is rewound and
// extended after every edit, and its ArrivalSignals run at the moved
// horizon; both must match a fresh run and the reference kernels bit for
// bit.
func FuzzPrefixEdit(f *testing.F) {
	f.Add([]byte{1, 5, 2, 6, 3, 7, 4, 8}, []byte{0, 0, 3, 1, 1, 2, 9, 2, 4, 1, 0, 0}, byte(4), byte(1), byte(6))
	f.Add([]byte{0, 5, 0, 5, 0, 5, 0, 5, 0, 5}, []byte{2, 1, 5, 3, 3, 2, 2, 7, 5, 0, 0, 1}, byte(2), byte(2), byte(9)) // duplicate days
	f.Add([]byte{4, 2, 4, 9, 4, 1, 4, 10, 4, 3}, []byte{3, 3, 0, 200, 1, 4, 7, 2, 0, 0, 2, 5}, byte(40), byte(5), byte(40))
	// Mean exactly 4.0 with 2.0 ratings: value edits move threshold_a across them.
	f.Add([]byte{1, 10, 1, 10, 1, 8, 1, 8, 1, 8, 1, 4, 1, 10, 1, 10, 1, 8, 1, 8, 1, 8, 1, 4, 1, 10, 1, 10, 1, 8, 1, 8, 1, 8, 1, 4},
		[]byte{3, 5, 10, 1, 3, 2, 3, 0, 0, 9, 8, 2, 3, 11, 1, 1}, byte(12), byte(3), byte(5))

	sc := NewScratch()
	f.Fuzz(func(t *testing.T, raw, edits []byte, a, b, c byte) {
		s := fuzzSeries(raw)
		cfg := fuzzConfig(a, b, c)
		hi := 1.0
		if len(s) > 0 {
			hi += s[len(s)-1].Day
		}
		var p Prefix
		checkCarried(t, "start", s, cfg, SeriesSignals(s, cfg, sc, &p), &p)
		checkArrivalCarried(t, "start", s, hi, cfg, sc, &p)
		for i := 0; i+3 < len(edits) && i < 80; i += 4 {
			var kind int
			s, kind = applyEdit(s, edits[i], edits[i+1], edits[i+2])
			p.Rewind(s, cfg)
			label := fmt.Sprintf("edit %d (%s)", i/4, editKinds[kind])
			checkCarried(t, label, s, cfg, SeriesSignals(s, cfg, sc, &p), &p)
			hi, _ = nextHorizon(hi, edits[i+3], edits[i+3]>>2)
			checkArrivalCarried(t, label, s, hi, cfg, sc, &p)
		}
	})
}
