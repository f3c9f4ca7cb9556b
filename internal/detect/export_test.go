package detect

// The tests that compare the kernels with internal/reference live in
// package detect_test, because internal/reference imports this package.
// These are the internals they probe, and the helpers they share with the
// in-package tests.

const TestHorizon = testHorizon

var (
	Analyze           = analyze
	Attacked          = attacked
	ARCKernel         = arcKernel
	PrefixCurves      = prefixCurves
	AverageTrustRange = averageTrustRange
)

// CarriedARCCounts returns the daily counts p carries for band i (0:
// H-ARC, 1: L-ARC) as float64s.
func CarriedARCCounts(p *Prefix, i int) []float64 {
	counts := make([]float64, len(p.arc[i].counts))
	for d, n := range p.arc[i].counts {
		counts[d] = float64(n)
	}
	return counts
}
