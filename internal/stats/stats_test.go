package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{4.5}, 4.5},
		{"symmetric", []float64{1, 2, 3, 4, 5}, 3},
		{"negative", []float64{-2, 2}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.in); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := SampleVariance(xs); !almostEqual(got, 32.0/7.0, 1e-12) {
		t.Errorf("SampleVariance = %v, want %v", got, 32.0/7.0)
	}
	if got := Variance(nil); got != 0 {
		t.Errorf("Variance(nil) = %v, want 0", got)
	}
	if got := SampleVariance([]float64{1}); got != 0 {
		t.Errorf("SampleVariance(single) = %v, want 0", got)
	}
}

func TestStdDevConsistency(t *testing.T) {
	xs := []float64{1, 3, 3, 7, 11}
	if got, want := StdDev(xs), math.Sqrt(Variance(xs)); got != want {
		t.Errorf("StdDev = %v, want %v", got, want)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi, err := MinMax([]float64{3, -1, 7, 0})
	if err != nil {
		t.Fatalf("MinMax: %v", err)
	}
	if lo != -1 || hi != 7 {
		t.Errorf("MinMax = (%v,%v), want (-1,7)", lo, hi)
	}
	if _, _, err := MinMax(nil); err == nil {
		t.Error("MinMax(nil): want error, got nil")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	tests := []struct {
		q, want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {-0.5, 1}, {1.5, 5},
	}
	for _, tt := range tests {
		if got := Quantile(xs, tt.q); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Quantile(q=%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile(nil) = %v, want 0", got)
	}
	// Quantile must not mutate its input.
	if xs[0] != 5 {
		t.Error("Quantile mutated its input")
	}
}

func TestMedianInterpolation(t *testing.T) {
	if got := Median([]float64{1, 2, 3, 4}); !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("Median = %v, want 2.5", got)
	}
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Correlation(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Correlation(perfect) = %v, want 1", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Correlation(xs, neg); !almostEqual(got, -1, 1e-12) {
		t.Errorf("Correlation(anti) = %v, want -1", got)
	}
	if got := Correlation(xs, []float64{3, 3, 3, 3, 3}); got != 0 {
		t.Errorf("Correlation(constant) = %v, want 0", got)
	}
	if got := Correlation(xs, ys[:3]); got != 0 {
		t.Errorf("Correlation(mismatched) = %v, want 0", got)
	}
}

func TestClamp(t *testing.T) {
	if got := Clamp(-1, 0, 5); got != 0 {
		t.Errorf("Clamp(-1) = %v", got)
	}
	if got := Clamp(7, 0, 5); got != 5 {
		t.Errorf("Clamp(7) = %v", got)
	}
	if got := Clamp(3, 0, 5); got != 3 {
		t.Errorf("Clamp(3) = %v", got)
	}
}

// Property: mean is translation-equivariant and variance is
// translation-invariant.
func TestMeanVarianceTranslationProperty(t *testing.T) {
	f := func(raw []float64, shiftRaw float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				continue
			}
			xs = append(xs, x)
		}
		if len(xs) == 0 {
			return true
		}
		shift := math.Mod(shiftRaw, 1000)
		if math.IsNaN(shift) {
			shift = 0
		}
		shifted := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + shift
		}
		tol := 1e-6 * (1 + math.Abs(shift))
		return almostEqual(Mean(shifted), Mean(xs)+shift, tol) &&
			almostEqual(Variance(shifted), Variance(xs), 1e-3)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: quantile is monotone in q.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			xs = append(xs, x)
		}
		if len(xs) < 2 {
			return true
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(xs, q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSampleStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	want := math.Sqrt(32.0 / 7.0)
	if got := SampleStdDev(xs); !almostEqual(got, want, 1e-12) {
		t.Errorf("SampleStdDev = %v, want %v", got, want)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := NewRNG(9)
	child1 := Fork(parent)
	child2 := Fork(parent)
	// Children are distinct streams…
	same := 0
	for i := 0; i < 16; i++ {
		if child1.Uint64() == child2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("forked streams collide %d/16 draws", same)
	}
	// …and forking is deterministic given the parent state.
	p1 := NewRNG(9)
	p2 := NewRNG(9)
	if Fork(p1).Uint64() != Fork(p2).Uint64() {
		t.Error("Fork not deterministic")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.Count != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("Summarize = %+v", s)
	}
	if !almostEqual(s.Q25, 2, 1e-12) || !almostEqual(s.Q75, 4, 1e-12) {
		t.Errorf("quartiles = %v, %v", s.Q25, s.Q75)
	}
	if got := Summarize(nil); got.Count != 0 {
		t.Errorf("empty Summarize = %+v", got)
	}
	if out := s.String(); len(out) == 0 || out[0] != 'n' {
		t.Errorf("String = %q", out)
	}
}

// Property: QuantileInPlace agrees with Quantile bit-for-bit (Quantile is a
// copy-then-delegate wrapper; this pins the in-place variant the detector
// scratch kernels call directly) and leaves its buffer sorted.
func TestQuantileInPlaceMatchesQuantile(t *testing.T) {
	f := func(raw []uint16, qRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		q := float64(qRaw%101) / 100
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v%200)/8 - 10
		}
		want := Quantile(xs, q)
		buf := make([]float64, len(xs))
		copy(buf, xs)
		got := QuantileInPlace(buf, q)
		if math.Float64bits(got) != math.Float64bits(want) {
			return false
		}
		for i := 1; i < len(buf); i++ {
			if buf[i] < buf[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: QuantileCounts agrees with Quantile over the same counts as
// float64 bit for bit, including single samples, repeated values and a
// hist longer than needed.
func TestQuantileCountsMatchesQuantile(t *testing.T) {
	f := func(raw []uint8, qRaw uint8, spare uint8) bool {
		q := float64(qRaw%121)/100 - 0.1 // includes out-of-range q
		counts := make([]int32, len(raw))
		xs := make([]float64, len(raw))
		peak := int32(0)
		for i, v := range raw {
			counts[i] = int32(v % 40)
			xs[i] = float64(counts[i])
			peak = max(peak, counts[i])
		}
		hist := make([]int32, int(peak)+1+int(spare%4))
		for i := range hist {
			hist[i] = 7 // stale contents must not leak
		}
		got := QuantileCounts(counts, q, hist)
		return math.Float64bits(got) == math.Float64bits(Quantile(xs, q))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
