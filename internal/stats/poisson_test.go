package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewPoissonValidation(t *testing.T) {
	if _, err := NewPoisson(-1); err == nil {
		t.Error("NewPoisson(-1): want error")
	}
	if _, err := NewPoisson(math.Inf(1)); err == nil {
		t.Error("NewPoisson(+Inf): want error")
	}
	if p, err := NewPoisson(0); err != nil || p.Lambda != 0 {
		t.Errorf("NewPoisson(0) = %+v, %v", p, err)
	}
}

func TestPoissonPMF(t *testing.T) {
	p := Poisson{Lambda: 3}
	// P(X=0) = e^-3.
	if got := p.PMF(0); !almostEqual(got, math.Exp(-3), 1e-12) {
		t.Errorf("PMF(0) = %v", got)
	}
	// P(X=3) = 27 e^-3 / 6 = 4.5 e^-3.
	if got := p.PMF(3); !almostEqual(got, 4.5*math.Exp(-3), 1e-12) {
		t.Errorf("PMF(3) = %v", got)
	}
	if got := p.PMF(-1); got != 0 {
		t.Errorf("PMF(-1) = %v, want 0", got)
	}
}

func TestPoissonZeroLambda(t *testing.T) {
	p := Poisson{Lambda: 0}
	if got := p.PMF(0); got != 1 {
		t.Errorf("PMF(0|λ=0) = %v, want 1", got)
	}
	if got := p.PMF(2); got != 0 {
		t.Errorf("PMF(2|λ=0) = %v, want 0", got)
	}
	rng := NewRNG(1)
	if got := p.Sample(rng); got != 0 {
		t.Errorf("Sample(λ=0) = %v, want 0", got)
	}
}

func TestPoissonPMFSumsToOne(t *testing.T) {
	p := Poisson{Lambda: 5}
	var sum float64
	for k := 0; k < 60; k++ {
		sum += p.PMF(k)
	}
	if !almostEqual(sum, 1, 1e-9) {
		t.Errorf("sum PMF = %v, want 1", sum)
	}
}

func TestPoissonSampleMoments(t *testing.T) {
	for _, lambda := range []float64{0.5, 3, 50} {
		rng := NewRNG(uint64(lambda*1000) + 9)
		p := Poisson{Lambda: lambda}
		const n = 20000
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(p.Sample(rng))
		}
		if got := Mean(xs); !almostEqual(got, lambda, 0.05*lambda+0.05) {
			t.Errorf("λ=%v: sample mean = %v", lambda, got)
		}
		if got := Variance(xs); !almostEqual(got, lambda, 0.1*lambda+0.1) {
			t.Errorf("λ=%v: sample variance = %v", lambda, got)
		}
	}
}

func TestRateChangeGLRTNoChange(t *testing.T) {
	y1 := []float64{3, 4, 3, 2, 4, 3}
	y2 := []float64{4, 3, 3, 3, 2, 4}
	stat := RateChangeGLRT(y1, y2)
	if stat > 0.05 {
		t.Errorf("GLRT under H0 = %v, want near 0", stat)
	}
	if stat < 0 {
		t.Errorf("GLRT = %v, must be non-negative (Jensen)", stat)
	}
}

func TestRateChangeGLRTWithChange(t *testing.T) {
	y1 := []float64{2, 3, 2, 3, 2, 3}
	y2 := []float64{10, 12, 9, 11, 10, 12}
	stat := RateChangeGLRT(y1, y2)
	if stat < 0.5 {
		t.Errorf("GLRT under H1 = %v, want large", stat)
	}
}

func TestRateChangeGLRTEdgeCases(t *testing.T) {
	if got := RateChangeGLRT(nil, []float64{1}); got != 0 {
		t.Errorf("GLRT(empty) = %v, want 0", got)
	}
	// All-zero counts: 0·ln0 handled as 0.
	if got := RateChangeGLRT([]float64{0, 0}, []float64{0, 0}); got != 0 {
		t.Errorf("GLRT(zeros) = %v, want 0", got)
	}
}

// Property: the GLRT statistic is non-negative (log-sum inequality) and zero
// when both halves have identical means.
func TestRateChangeGLRTNonNegativeProperty(t *testing.T) {
	f := func(raw1, raw2 []uint8) bool {
		if len(raw1) == 0 || len(raw2) == 0 {
			return true
		}
		y1 := make([]float64, len(raw1))
		y2 := make([]float64, len(raw2))
		for i, v := range raw1 {
			y1[i] = float64(v % 32)
		}
		for i, v := range raw2 {
			y2[i] = float64(v % 32)
		}
		return RateChangeGLRT(y1, y2) >= -1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestXlnx(t *testing.T) {
	if got := xlnx(0); got != 0 {
		t.Errorf("xlnx(0) = %v, want 0", got)
	}
	if got := xlnx(math.E); !almostEqual(got, math.E, 1e-12) {
		t.Errorf("xlnx(e) = %v, want e", got)
	}
}

// Property: RateChangeGLRT, now one sum per half, equals the original
// two-pass form (each half summed again for the pooled mean) bit for bit
// on arbitrary real inputs, and RateChangeGLRTSums equals it from the sums.
func TestRateChangeGLRTMatchesTwoPassForm(t *testing.T) {
	twoPass := func(y1, y2 []float64) float64 {
		a, b := float64(len(y1)), float64(len(y2))
		if len(y1) == 0 || len(y2) == 0 {
			return 0
		}
		total := a + b
		m1 := Sum(y1) / a
		m2 := Sum(y2) / b
		m := (Sum(y1) + Sum(y2)) / total
		return (a/total)*xlnx(m1) + (b/total)*xlnx(m2) - xlnx(m)
	}
	f := func(raw1, raw2 []uint16) bool {
		y1 := make([]float64, len(raw1))
		y2 := make([]float64, len(raw2))
		for i, v := range raw1 {
			y1[i] = float64(v) / 7
		}
		for i, v := range raw2 {
			y2[i] = float64(v) / 13
		}
		want := math.Float64bits(twoPass(y1, y2))
		return math.Float64bits(RateChangeGLRT(y1, y2)) == want &&
			math.Float64bits(RateChangeGLRTSums(Sum(y1), Sum(y2), float64(len(y1)), float64(len(y2)))) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
