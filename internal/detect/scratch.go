package detect

import "repro/internal/armodel"

// Scratch holds the reusable working buffers of the incremental detector
// kernels: the ARC daily-count and quantile buffers, the HC
// order-maintained sliding window, and the ME window-value buffer and AR
// fit working memory. A Scratch is plain memory with no result state —
// reusing one across series cannot change any output bit (pinned by the
// equivalence tests) — but it is not safe for concurrent use; give each
// goroutine its own (the engine's worker pool does exactly that).
//
// Results returned by the detectors never alias scratch memory: curves,
// peaks, segments and intervals are freshly allocated, so a Report outlives
// any later reuse of the Scratch that produced it. With a warm Scratch a
// full Analyze performs O(1) allocations per product (the returned result
// itself) instead of O(windows).
type Scratch struct {
	counts []float64 // ARC: daily band counts for the current series
	quant  []float64 // ARC: sorted copy of counts for the baseline quantile
	window []float64 // HC: ascending-sorted sliding window values
	vals   []float64 // ME: current window values for the AR fit
	ar     armodel.Work
}

// NewScratch returns an empty scratch; buffers grow on first use and are
// reused afterwards.
func NewScratch() *Scratch { return &Scratch{} }

// grow returns buf resized to n, reusing its backing array when capacity
// allows. Contents are unspecified; callers overwrite every element.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// countsBuf returns the ARC counts buffer resized to n and zeroed.
func (sc *Scratch) countsBuf(n int) []float64 {
	sc.counts = grow(sc.counts, n)
	clearFloats(sc.counts)
	return sc.counts
}

// quantBuf returns the quantile buffer resized to n (contents unspecified).
func (sc *Scratch) quantBuf(n int) []float64 {
	sc.quant = grow(sc.quant, n)
	return sc.quant
}

// windowBuf returns the HC window buffer emptied with capacity ≥ n.
func (sc *Scratch) windowBuf(n int) []float64 {
	sc.window = grow(sc.window, n)
	return sc.window[:0]
}

// valsBuf returns the ME values buffer resized to n (contents unspecified).
func (sc *Scratch) valsBuf(n int) []float64 {
	sc.vals = grow(sc.vals, n)
	return sc.vals
}

//lint:hotpath
func clearFloats(xs []float64) {
	for i := range xs {
		xs[i] = 0
	}
}
