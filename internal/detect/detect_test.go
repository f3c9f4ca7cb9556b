package detect

import (
	"testing"

	"repro/internal/dataset"
)

func TestMCCurveSpikesAtChangePoint(t *testing.T) {
	// Synthetic series: mean 4 for days 0–50, mean 2 for days 50–100.
	var s dataset.Series
	for d := 0; d < 100; d++ {
		v := 4.0
		if d >= 50 {
			v = 2.0
		}
		for i := 0; i < 3; i++ {
			s = append(s, dataset.Rating{Day: float64(d) + float64(i)/3, Value: v})
		}
	}
	cfg := DefaultConfig()
	c := mcExtend(s, cfg, Curve{})
	// The maximum statistic should be near day 50.
	best, bestY := 0.0, -1.0
	for i, y := range c.Y {
		if y > bestY {
			best, bestY = c.X[i], y
		}
	}
	if best < 45 || best > 55 {
		t.Errorf("MC max at day %v, want ≈50", best)
	}
	if bestY < cfg.MCPeakThreshold {
		t.Errorf("MC max %v below peak threshold %v", bestY, cfg.MCPeakThreshold)
	}
}

func TestMeanChangeQuietOnFairData(t *testing.T) {
	cfg := DefaultConfig()
	for seed := uint64(1); seed <= 5; seed++ {
		s := fairSeries(t, seed)
		_, dec, _ := analyze(s, testHorizon, cfg, nil, NewScratch())
		if len(suspiciousSegments(dec.Segments)) > 0 {
			t.Errorf("seed %d: fair data flagged MC-suspicious (segments %+v)", seed, dec.Segments)
		}
	}
}

func TestMeanChangeFlagsDowngradeAttack(t *testing.T) {
	cfg := DefaultConfig()
	// 50 ratings at ≈1.0 over days 60–80 against a mean-4 product.
	s := attacked(t, 7, 60, 80, 50, 1.0, 0.3)
	_, dec, p := analyze(s, testHorizon, cfg, nil, NewScratch())
	suspicious := suspiciousSegments(dec.Segments)
	if len(suspicious) == 0 {
		mc, _, _, _, _ := p.Curves(cfg)
		t.Fatalf("strong downgrade not MC-suspicious (peaks %v, max %v)",
			mc.Peaks(cfg.MCPeakThreshold, cfg.MCPeakMinSepDays), mc.Max())
	}
	// A suspicious segment should overlap the attack window.
	overlap := false
	for _, iv := range suspicious {
		if iv.Overlaps(Interval{Start: 60, End: 80}) {
			overlap = true
		}
	}
	if !overlap {
		t.Errorf("suspicious intervals %v do not overlap attack window", suspicious)
	}
}

func TestMeanChangeSegmentBoundsCoverSeries(t *testing.T) {
	s := attacked(t, 3, 40, 60, 40, 1.5, 0.4)
	sig := SeriesSignals(s, DefaultConfig(), NewScratch(), nil)
	total := 0
	for _, seg := range sig.MC {
		total += len(s.Between(seg.Interval.Start, seg.Interval.End))
	}
	if total != len(s) {
		t.Errorf("segments cover %d of %d ratings", total, len(s))
	}
}

func TestARCQuietOnFairData(t *testing.T) {
	cfg := DefaultConfig()
	quietSeeds := 0
	for seed := uint64(1); seed <= 5; seed++ {
		s := fairSeries(t, seed)
		res, _ := arcKernel(s, testHorizon, AllRatings, cfg)
		if !res.Suspicious() {
			quietSeeds++
		}
	}
	// Fair data has bursts (BurstProb), so allow occasional alarms, but
	// most seeds must stay quiet.
	if quietSeeds < 3 {
		t.Errorf("only %d/5 fair seeds quiet under ARC", quietSeeds)
	}
}

func TestARCFlagsRateBurst(t *testing.T) {
	cfg := DefaultConfig()
	// 60 extra low ratings in 10 days ≈ +6/day on a 3.5/day baseline.
	s := attacked(t, 11, 70, 80, 60, 1.0, 0.3)
	res, curve := arcKernel(s, testHorizon, AllRatings, cfg)
	if !res.Alarm() {
		t.Fatalf("rate burst raised no ARC alarm (max %v)", curve.Max())
	}
	if !res.Suspicious() {
		t.Fatalf("rate burst has no suspicious segment (segments %+v)", res.Segments)
	}
	found := false
	for _, iv := range res.SuspiciousIntervals() {
		if iv.Overlaps(Interval{Start: 68, End: 82}) {
			found = true
		}
	}
	if !found {
		t.Errorf("suspicious segments %v miss the burst window", res.SuspiciousIntervals())
	}
}

func TestLARCSelectsLowRatings(t *testing.T) {
	cfg := DefaultConfig()
	s := attacked(t, 13, 70, 80, 60, 1.0, 0.3)
	var p Prefix
	_, low := ArrivalSignals(s, testHorizon, cfg, NewScratch(), &p)
	if !low.Alarm() {
		t.Errorf("L-ARC missed a low-value burst")
	}
	// H-ARC should see far less signal from a low-value attack.
	_, hCurve, lCurve, _, _ := p.Curves(cfg)
	if hCurve.Max() >= lCurve.Max() {
		t.Errorf("H-ARC max %v ≥ L-ARC max %v for low-value attack", hCurve.Max(), lCurve.Max())
	}
}

func TestBandThresholds(t *testing.T) {
	ta, tb := BandThresholds(4.0)
	if ta != 2.0 || tb != 2.51 {
		t.Errorf("BandThresholds(4) = (%v,%v), want (2, 2.51)", ta, tb)
	}
}

func TestARCBandString(t *testing.T) {
	if AllRatings.String() != "ARC" || HighBand.String() != "H-ARC" || LowBand.String() != "L-ARC" {
		t.Error("ARCBand String values wrong")
	}
	if ARCBand(0).String() != "ARC(?)" {
		t.Error("unknown band String wrong")
	}
}

func TestHCQuietOnFairData(t *testing.T) {
	cfg := DefaultConfig()
	quiet := 0
	for seed := uint64(1); seed <= 5; seed++ {
		s := fairSeries(t, seed)
		if len(SeriesSignals(s, cfg, NewScratch(), nil).HC) == 0 {
			quiet++
		}
	}
	if quiet < 4 {
		t.Errorf("only %d/5 fair seeds quiet under HC", quiet)
	}
}

func TestHCFlagsBimodalWindow(t *testing.T) {
	cfg := DefaultConfig()
	s := attacked(t, 17, 60, 90, 60, 0.8, 0.2)
	var p Prefix
	if len(SeriesSignals(s, cfg, NewScratch(), &p).HC) == 0 {
		_, _, _, hc, _ := p.Curves(cfg)
		t.Fatalf("bimodal attack not HC-suspicious (max ratio %v)", hc.Max())
	}
}

func TestMEQuietOnFairData(t *testing.T) {
	cfg := DefaultConfig()
	quiet := 0
	for seed := uint64(1); seed <= 5; seed++ {
		s := fairSeries(t, seed)
		if len(SeriesSignals(s, cfg, NewScratch(), nil).ME) == 0 {
			quiet++
		}
	}
	if quiet < 4 {
		t.Errorf("only %d/5 fair seeds quiet under ME", quiet)
	}
}

func TestMEFlagsConstantSignal(t *testing.T) {
	cfg := DefaultConfig()
	// A dense constant-value attack makes windows highly predictable.
	s := attacked(t, 19, 60, 75, 80, 1.0, 0.05)
	var p Prefix
	if len(SeriesSignals(s, cfg, NewScratch(), &p).ME) == 0 {
		_, _, _, _, me := p.Curves(cfg)
		min := 2.0
		for _, y := range me.Y {
			if y < min {
				min = y
			}
		}
		t.Fatalf("constant-signal attack not ME-suspicious (min RelErr %v)", min)
	}
}

func TestAnalyzeMarksStrongAttack(t *testing.T) {
	cfg := DefaultConfig()
	s := attacked(t, 23, 60, 80, 50, 1.0, 0.3)
	_, rep, _ := analyze(s, testHorizon, cfg, nil, NewScratch())
	recall, precision := recallPrecision(s, rep.Suspicious)
	if recall < 0.5 {
		t.Errorf("recall = %v, want ≥ 0.5", recall)
	}
	if precision < 0.5 {
		t.Errorf("precision = %v, want ≥ 0.5", precision)
	}
	if len(rep.Intervals) == 0 {
		t.Error("no suspicious intervals reported")
	}
}

func TestAnalyzeQuietOnFairData(t *testing.T) {
	cfg := DefaultConfig()
	for seed := uint64(1); seed <= 5; seed++ {
		s := fairSeries(t, seed)
		_, rep, _ := analyze(s, testHorizon, cfg, nil, NewScratch())
		frac := float64(countMarks(rep.Suspicious)) / float64(len(s))
		if frac > 0.10 {
			t.Errorf("seed %d: %.1f%% of fair ratings marked suspicious", seed, 100*frac)
		}
	}
}

func TestAnalyzeEmptySeries(t *testing.T) {
	_, rep, _ := analyze(nil, testHorizon, DefaultConfig(), nil, NewScratch())
	if countMarks(rep.Suspicious) != 0 || len(rep.Intervals) != 0 {
		t.Error("empty series produced marks")
	}
}

func TestBoostAttackWeakerSignatureThanDowngrade(t *testing.T) {
	// Section V-B: boosting a product whose fair mean is already ≈4 leaves
	// little room, so its detector signature (and harm) is much weaker
	// than an equal-size downgrade. The boost must still trip the H-ARC
	// alarm, but the MC response must be far below the downgrade's.
	cfg := DefaultConfig()
	boost := attacked(t, 29, 60, 72, 50, 5.0, 0.1)
	down := attacked(t, 29, 60, 72, 50, 1.0, 0.1)

	h, _ := ArrivalSignals(boost, testHorizon, cfg, NewScratch(), nil)
	if !h.Alarm() {
		t.Error("boost attack raised no H-ARC alarm")
	}
	mcBoost := mcExtend(boost, cfg, Curve{}).Max()
	mcDown := mcExtend(down, cfg, Curve{}).Max()
	if mcBoost >= mcDown*0.8 {
		t.Errorf("boost MC max %v not clearly below downgrade MC max %v", mcBoost, mcDown)
	}
}

func TestNeutralTrustSource(t *testing.T) {
	ts := NeutralTrust()
	if ts.Trust("anyone") != 0.5 {
		t.Error("neutral Trust != 0.5")
	}
}
