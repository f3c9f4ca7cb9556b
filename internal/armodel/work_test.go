package armodel

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/stats"
)

// fitRef is the original covariance fit, kept as the oracle for Work.Fit:
// every covariance sum computed by a closure, the full (non-symmetric)
// normal-equation matrix, and fresh slices per fit.
func fitRef(x []float64, order int) (Model, error) {
	if order <= 0 {
		return Model{}, fmt.Errorf("%w: %d", ErrBadOrder, order)
	}
	n := len(x)
	if n < 2*order+1 {
		return Model{}, fmt.Errorf("%w: n=%d, order=%d", ErrTooShort, n, order)
	}
	mean := stats.Mean(x)
	xc := make([]float64, n)
	for i, v := range x {
		xc[i] = v - mean
	}
	variance := stats.Variance(xc)
	if degenerateVariance(variance, mean) {
		return Model{Coeffs: make([]float64, order), Err: 0, RelErr: 0}, nil
	}
	c := func(j, k int) float64 {
		var s float64
		for t := order; t < n; t++ {
			s += xc[t-j] * xc[t-k]
		}
		return s
	}
	a := make([][]float64, order)
	b := make([]float64, order)
	for j := 1; j <= order; j++ {
		row := make([]float64, order)
		for k := 1; k <= order; k++ {
			row[k-1] = c(j, k)
		}
		a[j-1] = row
		b[j-1] = -c(j, 0)
	}
	coeffs, err := solveLinearRef(a, b)
	if err != nil {
		return Model{}, err
	}
	residual := c(0, 0)
	for k := 1; k <= order; k++ {
		residual += coeffs[k-1] * c(0, k)
	}
	if residual < 0 {
		residual = 0
	}
	rel := residual / float64(n-order) / variance
	if rel > 1 {
		rel = 1
	}
	return Model{Coeffs: coeffs, Err: residual, RelErr: rel}, nil
}

// solveLinearRef is the original row-slice Gaussian elimination.
func solveLinearRef(a [][]float64, b []float64) ([]float64, error) {
	n := len(b)
	for col := 0; col < n; col++ {
		pivot := col
		best := math.Abs(a[col][col])
		for row := col + 1; row < n; row++ {
			if v := math.Abs(a[row][col]); v > best {
				pivot, best = row, v
			}
		}
		if best < 1e-12 {
			return nil, ErrSingular
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		for row := col + 1; row < n; row++ {
			f := a[row][col] / a[col][col]
			//lint:ignore floateq mirrors the shipped solver's exactly-zero row skip
			if f == 0 {
				continue
			}
			for k := col; k < n; k++ {
				a[row][k] -= f * a[col][k]
			}
			b[row] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for row := n - 1; row >= 0; row-- {
		sum := b[row]
		for k := row + 1; k < n; k++ {
			sum -= a[row][k] * x[k]
		}
		x[row] = sum / a[row][row]
	}
	return x, nil
}

// solveLinear runs the shipped solver on a row-slice system (flattened),
// for the solver tests.
func solveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(b)
	flat := make([]float64, 0, n*n)
	for _, row := range a {
		flat = append(flat, row...)
	}
	x := make([]float64, n)
	if err := solveInto(flat, b, x); err != nil {
		return nil, err
	}
	return x, nil
}

func modelsBitEqual(a, b Model) bool {
	if len(a.Coeffs) != len(b.Coeffs) ||
		math.Float64bits(a.Err) != math.Float64bits(b.Err) ||
		math.Float64bits(a.RelErr) != math.Float64bits(b.RelErr) {
		return false
	}
	for i := range a.Coeffs {
		if math.Float64bits(a.Coeffs[i]) != math.Float64bits(b.Coeffs[i]) {
			return false
		}
	}
	return true
}

// TestWorkFitMatchesReference drives one Work through windows of varying
// length and order — half-star ratings (singular and constant windows
// included), Gaussian noise, and degenerate sizes — and requires Fit and
// the reused Work to match fitRef bit for bit, errors included.
func TestWorkFitMatchesReference(t *testing.T) {
	rng := stats.NewRNG(41)
	var w Work
	singular, constant := 0, 0
	for trial := 0; trial < 2000; trial++ {
		order := 1 + rng.IntN(6)
		n := rng.IntN(60)
		x := make([]float64, n)
		switch trial % 4 {
		case 0: // half-star ratings
			for i := range x {
				x[i] = float64(rng.IntN(11)) / 2
			}
		case 1: // two-valued: often singular normal equations
			for i := range x {
				x[i] = 4 + float64(rng.IntN(2))/2
			}
		case 2: // constant
			for i := range x {
				x[i] = 3.5
			}
		default:
			for i := range x {
				x[i] = 3 + rng.NormFloat64()
			}
		}
		want, werr := fitRef(x, order)
		for _, fit := range []func() (Model, error){
			func() (Model, error) { return Fit(x, order) },
			func() (Model, error) { return w.Fit(x, order) },
			func() (Model, error) { return w.FitMethod(x, order, Covariance) },
		} {
			got, err := fit()
			if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
				t.Fatalf("trial %d (n=%d, order=%d): error %v, reference %v", trial, n, order, err, werr)
			}
			if !modelsBitEqual(got, want) {
				t.Fatalf("trial %d (n=%d, order=%d): %+v, reference %+v", trial, n, order, got, want)
			}
		}
		if errors.Is(werr, ErrSingular) {
			singular++
		}
		if werr == nil && want.Err == 0 {
			constant++
		}
	}
	if singular == 0 || constant == 0 {
		t.Fatalf("corpus misses a branch: %d singular, %d constant windows", singular, constant)
	}
}

// TestWorkFitAllocFree pins the point of Work: once warm, a fit allocates
// nothing.
func TestWorkFitAllocFree(t *testing.T) {
	x := make([]float64, 40)
	for i := range x {
		x[i] = 4 + math.Sin(0.7*float64(i))
	}
	var w Work
	if _, err := w.Fit(x, 2); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = w.Fit(x, 2) }); allocs != 0 {
		t.Errorf("warm Work.Fit: %v allocs/op, want 0", allocs)
	}
}
