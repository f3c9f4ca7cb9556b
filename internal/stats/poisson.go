package stats

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Poisson is a Poisson distribution with rate Lambda (events per unit time).
type Poisson struct {
	Lambda float64
}

// NewPoisson constructs a Poisson; Lambda must be non-negative.
func NewPoisson(lambda float64) (Poisson, error) {
	if lambda < 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		return Poisson{}, fmt.Errorf("lambda %v: %w", lambda, ErrBadParameter)
	}
	return Poisson{Lambda: lambda}, nil
}

// LogPMF returns ln P(X = k).
func (p Poisson) LogPMF(k int) float64 {
	if k < 0 {
		return math.Inf(-1)
	}
	//lint:ignore floateq λ=0 is the exact point-mass-at-zero special case of the Poisson PMF, not a rounding comparison
	if p.Lambda == 0 {
		if k == 0 {
			return 0
		}
		return math.Inf(-1)
	}
	lg, _ := math.Lgamma(float64(k) + 1)
	return float64(k)*math.Log(p.Lambda) - p.Lambda - lg
}

// PMF returns P(X = k).
func (p Poisson) PMF(k int) float64 {
	return math.Exp(p.LogPMF(k))
}

// Sample draws one value using rng. Knuth's multiplication method is used
// for small rates; a normal approximation with continuity correction is used
// for large rates (λ > 30) to keep sampling O(1).
func (p Poisson) Sample(rng *rand.Rand) int {
	if p.Lambda <= 0 {
		return 0
	}
	if p.Lambda > 30 {
		x := p.Lambda + math.Sqrt(p.Lambda)*rng.NormFloat64()
		if x < 0 {
			return 0
		}
		return int(math.Floor(x + 0.5))
	}
	limit := math.Exp(-p.Lambda)
	k := 0
	prod := rng.Float64()
	for prod > limit {
		k++
		prod *= rng.Float64()
	}
	return k
}

// xlnx returns x·ln(x) with the limit value 0 at x = 0.
func xlnx(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return x * math.Log(x)
}

// RateChangeGLRT returns the normalized Poisson arrival-rate-change GLRT
// statistic for a window of daily counts split at index a (paper Eq. 5):
//
//	(a/2D)·Ȳ1·lnȲ1 + (b/2D)·Ȳ2·lnȲ2 − Ȳ·lnȲ
//
// where y1 holds the first a daily counts, y2 the remaining b counts,
// 2D = a + b, Ȳ1, Ȳ2 are the segment mean rates and Ȳ the overall mean rate.
// A value at or above ln(γ)/2D decides H1 (rate change present). The
// statistic is 0 when either segment is empty.
func RateChangeGLRT(y1, y2 []float64) float64 {
	return RateChangeGLRTSums(Sum(y1), Sum(y2), float64(len(y1)), float64(len(y2)))
}

// RateChangeGLRTSums is RateChangeGLRT from the segment sums s1, s2 and
// lengths a, b: each sum is taken once, and the statistic is the same
// expression in the same operation order, so RateChangeGLRT(y1, y2) equals
// RateChangeGLRTSums(Sum(y1), Sum(y2), len(y1), len(y2)) bit for bit. A
// caller holding integer counts can pass prefix-sum differences, which are
// exact below 2^53.
//
//lint:hotpath
func RateChangeGLRTSums(s1, s2, a, b float64) float64 {
	//lint:ignore floateq a and b are segment lengths; integer-valued, so equality is exact
	if a == 0 || b == 0 {
		return 0
	}
	total := a + b
	m1 := s1 / a
	m2 := s2 / b
	m := (s1 + s2) / total
	return (a/total)*xlnx(m1) + (b/total)*xlnx(m2) - xlnx(m)
}
