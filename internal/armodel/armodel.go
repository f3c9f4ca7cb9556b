// Package armodel fits autoregressive (AR) signal models using the
// covariance method (Hayes, "Statistical Digital Signal Processing and
// Modeling") and exposes the model error the paper's signal-model-change
// detector thresholds: honest ratings behave like white noise (high,
// irreducible model error), while collaborative unfair ratings introduce a
// predictable "signal" component that drives the model error down.
package armodel

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/stats"
)

// Errors returned by the AR fitting routines.
var (
	// ErrTooShort indicates a window shorter than needed for the order.
	ErrTooShort = errors.New("armodel: window too short for order")
	// ErrBadOrder indicates a non-positive model order.
	ErrBadOrder = errors.New("armodel: bad order")
	// ErrSingular indicates numerically singular normal equations.
	ErrSingular = errors.New("armodel: singular normal equations")
)

// Model is a fitted AR(p) model: x(n) ≈ −Σ a_k·x(n−k) + e(n).
type Model struct {
	// Coeffs holds a_1 … a_p.
	Coeffs []float64
	// Err is the minimized residual sum of squares Σ e(n)².
	Err float64
	// RelErr is Err normalized per sample and divided by the signal's
	// variance: ≈1 for unpredictable white noise, →0 for a strong signal.
	RelErr float64
}

// degenerateVariance reports whether the mean-removed window is constant
// for fitting purposes. An exact ==0 test misses truly constant windows:
// summing n identical values rounds, so the subtracted mean differs from
// the samples by an ulp and the centered variance comes out tiny but
// nonzero — which previously sent a constant window into an
// ill-conditioned recursion instead of the constant-window fast path. The
// threshold is relative to the DC level: ~(1e-12·mean)² is far below any
// real rating variation but far above accumulated rounding noise.
func degenerateVariance(variance, mean float64) bool {
	return variance <= 1e-24*(1+mean*mean)
}

// Fit fits an AR(order) model to x with the covariance method. The window
// must contain at least 2·order+1 samples. The mean is removed before
// fitting (ratings have a large DC component that is not "signal").
func Fit(x []float64, order int) (Model, error) {
	var w Work
	return w.Fit(x, order)
}

// Work is reusable working memory for covariance-method fits: the centered
// window, the normal equations and the coefficients. The zero value is
// ready to use; buffers grow on first use and are reused afterwards, so a
// loop of fits with one Work allocates nothing once warm. A Work is not
// safe for concurrent use.
type Work struct {
	xc     []float64 // the mean-removed window
	c0     []float64 // c(0,k), k = 0…order
	a      []float64 // normal-equation matrix c(j,k), j,k = 1…order, row-major
	b      []float64 // right-hand side −c(j,0)
	coeffs []float64
}

// Fit is the package-level Fit on w's buffers, with the same results. The
// returned Coeffs alias w and are overwritten by the next fit on w.
func (w *Work) Fit(x []float64, order int) (Model, error) {
	if order <= 0 {
		return Model{}, fmt.Errorf("%w: %d", ErrBadOrder, order)
	}
	n := len(x)
	if n < 2*order+1 {
		return Model{}, fmt.Errorf("%w: n=%d, order=%d", ErrTooShort, n, order)
	}
	w.xc = grow(w.xc, n)
	w.c0 = grow(w.c0, order+1)
	w.a = grow(w.a, order*order)
	w.b = grow(w.b, order)
	w.coeffs = grow(w.coeffs, order)
	return w.fit(x, order)
}

// FitMethod is the package-level FitMethod with the covariance method run
// on w's buffers (see Work.Fit); the ablation methods allocate as before.
func (w *Work) FitMethod(x []float64, order int, method Method) (Model, error) {
	if method == Covariance || method == 0 {
		return w.Fit(x, order)
	}
	return FitMethod(x, order, method)
}

// fit is the covariance-method kernel on buffers Work.Fit sized for
// len(x) samples and the order. The normal-equation matrix is symmetric,
// c(j,k) = c(k,j) bit for bit (the same products summed in the same
// order), so each sum is computed once; c(0,k) feeds both the right-hand
// side and the minimum error.
//
//lint:hotpath
func (w *Work) fit(x []float64, order int) (Model, error) {
	n := len(x)
	mean := stats.Mean(x)
	xc := w.xc[:n]
	for i, v := range x {
		xc[i] = v - mean
	}
	variance := stats.Variance(xc)
	coeffs := w.coeffs[:order]
	if degenerateVariance(variance, mean) {
		// Constant window: perfectly predictable, zero residual.
		for i := range coeffs {
			coeffs[i] = 0
		}
		return Model{Coeffs: coeffs, Err: 0, RelErr: 0}, nil
	}

	// Normal equations: Σ_k a_k·c(j,k) = −c(j,0), j = 1…order.
	c0, a, b := w.c0[:order+1], w.a[:order*order], w.b[:order]
	for k := 0; k <= order; k++ {
		c0[k] = covSum(xc, order, 0, k)
	}
	for j := 1; j <= order; j++ {
		for k := j; k <= order; k++ {
			c := covSum(xc, order, j, k)
			a[(j-1)*order+k-1] = c
			a[(k-1)*order+j-1] = c
		}
		b[j-1] = -c0[j]
	}
	if err := solveInto(a, b, coeffs); err != nil {
		return Model{}, err
	}

	// Minimum error: E = c(0,0) + Σ_k a_k·c(0,k).
	residual := c0[0]
	for k := 1; k <= order; k++ {
		residual += coeffs[k-1] * c0[k]
	}
	if residual < 0 {
		residual = 0 // numerical round-off
	}
	rel := residual / float64(n-order) / variance
	if rel > 1 {
		rel = 1
	}
	return Model{Coeffs: coeffs, Err: residual, RelErr: rel}, nil
}

// covSum is the covariance sum c(j,k) = Σ_{t=order}^{n-1} x(t−j)·x(t−k).
//
//lint:hotpath
func covSum(xc []float64, order, j, k int) float64 {
	var s float64
	for t := order; t < len(xc); t++ {
		s += xc[t-j] * xc[t-k]
	}
	return s
}

// solveInto solves a·x = b by Gaussian elimination with partial pivoting,
// writing x. a is the n×n matrix in row-major order, n = len(b); both are
// overwritten.
//
//lint:hotpath
func solveInto(a, b, x []float64) error {
	n := len(b)
	for col := 0; col < n; col++ {
		// Pivot: largest |a[row][col]| for row ≥ col.
		pivot := col
		best := math.Abs(a[col*n+col])
		for row := col + 1; row < n; row++ {
			if v := math.Abs(a[row*n+col]); v > best {
				pivot, best = row, v
			}
		}
		if best < 1e-12 {
			return ErrSingular
		}
		for k := 0; k < n; k++ {
			a[col*n+k], a[pivot*n+k] = a[pivot*n+k], a[col*n+k]
		}
		b[col], b[pivot] = b[pivot], b[col]
		for row := col + 1; row < n; row++ {
			f := a[row*n+col] / a[col*n+col]
			//lint:ignore floateq exactly-zero multiplier row-skip is an optimization; any nonzero f, however tiny, must still be eliminated
			if f == 0 {
				continue
			}
			for k := col; k < n; k++ {
				a[row*n+k] -= f * a[col*n+k]
			}
			b[row] -= f * b[col]
		}
	}
	for row := n - 1; row >= 0; row-- {
		sum := b[row]
		for k := row + 1; k < n; k++ {
			sum -= a[row*n+k] * x[k]
		}
		x[row] = sum / a[row*n+row]
	}
	return nil
}

// grow returns buf resized to n, reusing its backing array when capacity
// allows. Contents are unspecified; callers overwrite every element.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// Predict returns the one-step AR prediction for position t (t ≥ order)
// given the zero-mean history xc. It is exported for diagnostics and tests.
func (m Model) Predict(xc []float64, t int) float64 {
	var p float64
	for k := 1; k <= len(m.Coeffs); k++ {
		p -= m.Coeffs[k-1] * xc[t-k]
	}
	return p
}
