// Package stats provides the statistical substrate for the rating-system
// reproduction: descriptive statistics, Gaussian and Poisson models,
// generalized likelihood ratio test (GLRT) statistics, histograms, and
// deterministic PRNG plumbing.
//
// The paper's detectors (mean change, arrival-rate change) are built on the
// hypothesis tests implemented here. Everything is stdlib-only; the Go stats
// ecosystem is intentionally not used.
package stats

import (
	"errors"
	"math"
	"sort"
)

// Errors returned by the statistics routines.
var (
	// ErrEmptyInput indicates an operation that requires at least one sample.
	ErrEmptyInput = errors.New("stats: empty input")
	// ErrBadParameter indicates an out-of-domain distribution parameter.
	ErrBadParameter = errors.New("stats: bad parameter")
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs (divide by n), or 0 when
// fewer than one sample is present.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n)
}

// SampleVariance returns the unbiased sample variance (divide by n-1).
// It returns 0 when fewer than two samples are present.
func SampleVariance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// SampleStdDev returns the sample standard deviation of xs.
func SampleStdDev(xs []float64) float64 {
	return math.Sqrt(SampleVariance(xs))
}

// MinMax returns the smallest and largest values in xs.
// It returns ErrEmptyInput for an empty slice.
func MinMax(xs []float64) (minVal, maxVal float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmptyInput
	}
	minVal, maxVal = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < minVal {
			minVal = x
		}
		if x > maxVal {
			maxVal = x
		}
	}
	return minVal, maxVal, nil
}

// Median returns the median of xs without modifying it.
// It returns 0 for an empty slice.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It copies xs and returns 0 for an
// empty slice. Out-of-range q is clamped.
func Quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := make([]float64, n)
	copy(sorted, xs)
	return QuantileInPlace(sorted, q)
}

// QuantileInPlace is Quantile without the defensive copy: xs is sorted in
// place and the interpolated order statistic returned. Hot paths that own a
// reusable scratch buffer (the detector kernels) avoid Quantile's per-call
// allocation; the result is identical because a sorted permutation of the
// same multiset is unique.
func QuantileInPlace(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sort.Float64s(xs)
	if n == 1 {
		return xs[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

// QuantileCounts is Quantile over non-negative integer samples, by a
// counting select instead of a sort. hist must be longer than the largest
// count; it is overwritten. The order statistics it finds are the values a
// sort would put at the same ranks, and they are interpolated by the same
// expression, so the result equals Quantile over the counts as float64
// bit for bit.
//
//lint:hotpath
func QuantileCounts(counts []int32, q float64, hist []int32) float64 {
	n := len(counts)
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	if n == 1 {
		return float64(counts[0])
	}
	for i := range hist {
		hist[i] = 0
	}
	for _, c := range counts {
		hist[c]++
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return orderStat(hist, lo)
	}
	frac := pos - float64(lo)
	return orderStat(hist, lo)*(1-frac) + orderStat(hist, hi)*frac
}

// orderStat returns the r-th smallest (from 0) of the samples counted in
// hist, where hist[v] is how many samples equal v.
//
//lint:hotpath
func orderStat(hist []int32, r int) float64 {
	for v, c := range hist {
		if r < int(c) {
			return float64(v)
		}
		r -= int(c)
	}
	panic("stats: order statistic beyond the sample count")
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Correlation returns the Pearson correlation coefficient between xs and ys.
// It returns 0 if the slices differ in length, are shorter than 2, or either
// has zero variance.
func Correlation(xs, ys []float64) float64 {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	//lint:ignore floateq exact-zero division guard: sxx/syy are sums of squares, only exactly 0 (a constant input) makes the denominator vanish
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
