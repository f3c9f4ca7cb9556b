package detect

import (
	"testing"

	"repro/internal/armodel"
)

func TestMEMethodAblation(t *testing.T) {
	// All three AR fitting methods must agree on the detector-level
	// decision for a clearly suspicious and a clearly clean series.
	atk := attacked(t, 19, 60, 75, 80, 1.0, 0.05)
	fair := fairSeries(t, 3)
	for _, m := range []armodel.Method{armodel.Covariance, armodel.Autocorrelation, armodel.Burg} {
		cfg := DefaultConfig()
		cfg.MEMethod = m
		if len(SeriesSignals(atk, cfg, NewScratch(), nil).ME) == 0 {
			t.Errorf("method %v: dense constant attack not ME-suspicious", m)
		}
		if len(SeriesSignals(fair, cfg, NewScratch(), nil).ME) > 0 {
			t.Errorf("method %v: fair data ME-suspicious", m)
		}
	}
}

func TestFusionPathAblation(t *testing.T) {
	// Disable each path via its thresholds and check the other still
	// catches its kind of attack.
	strong := attacked(t, 23, 60, 80, 50, 1.0, 0.3)

	// Path 2 only (MC segments never fire with an impossible threshold):
	// the L-ARC + HC/ME stage must still mark the attack.
	cfg := DefaultConfig()
	cfg.MCThreshold1 = 99
	cfg.MCThreshold2 = 99
	_, rep, _ := analyze(strong, testHorizon, cfg, nil, NewScratch())
	recall, _ := recallPrecision(strong, rep.Suspicious)
	if recall < 0.4 {
		t.Errorf("path-2-only recall = %v", recall)
	}

	// Path 1 only (second-stage detectors never confirm): the MC + ARC
	// stage must still mark the attack.
	cfg = DefaultConfig()
	cfg.METhreshold = -1 // RelErr can never drop below −1
	cfg.HCThreshold = 99
	_, rep, _ = analyze(strong, testHorizon, cfg, nil, NewScratch())
	recall, _ = recallPrecision(strong, rep.Suspicious)
	if recall < 0.4 {
		t.Errorf("path-1-only recall = %v", recall)
	}
}

func TestWindowSizeSensitivity(t *testing.T) {
	// Halving / doubling the MC window must not break detection of the
	// canonical strong attack (threshold robustness ablation).
	strong := attacked(t, 23, 60, 80, 50, 1.0, 0.3)
	for _, wnd := range []float64{15, 30, 60} {
		cfg := DefaultConfig()
		cfg.MCWindowDays = wnd
		_, dec, _ := analyze(strong, testHorizon, cfg, nil, NewScratch())
		if len(suspiciousSegments(dec.Segments)) == 0 {
			t.Errorf("MC window %v days: attack not suspicious", wnd)
		}
	}
}
