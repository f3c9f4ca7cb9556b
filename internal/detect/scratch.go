package detect

import "repro/internal/armodel"

// Scratch holds the reusable working buffers of the incremental detector
// kernels: the ARC prefix-sum, quantile-histogram and curve-day buffers,
// the HC order-maintained sliding window, and the ME window-value buffer
// and AR fit working memory. A Scratch is plain memory with no result state —
// reusing one across series cannot change any output bit (pinned by the
// equivalence tests) — but it is not safe for concurrent use; give each
// goroutine its own (the engine's worker pool does exactly that).
//
// Results returned by the detectors never alias scratch memory: peaks,
// segments and intervals are freshly allocated, so Signals outlive any
// later reuse of the Scratch that produced them. With a warm Scratch a
// full detector run performs O(1) allocations per product (the returned
// result itself) instead of O(windows).
type Scratch struct {
	sums   []int64   // ARC: prefix sums of the current band's daily counts
	hist   []int32   // ARC: histogram of the daily counts for the baseline quantile
	days   []float64 // ARC: curve point days 3, 4, 5, … (curveDays), shared by both bands
	window []float64 // HC: ascending-sorted sliding window values
	vals   []float64 // ME: current window values for the AR fit
	ar     armodel.Work
}

// NewScratch returns an empty scratch; buffers grow on first use and are
// reused afterwards.
func NewScratch() *Scratch { return &Scratch{} }

// grow returns buf resized to n, reusing its backing array when capacity
// allows. Contents are unspecified; callers overwrite every element.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// sumsBuf returns the ARC prefix-sum buffer resized to n and zeroed.
func (sc *Scratch) sumsBuf(n int) []int64 {
	sc.sums = grow(sc.sums, n)
	clear(sc.sums)
	return sc.sums
}

// histBuf returns the ARC quantile histogram resized to n (contents
// unspecified; stats.QuantileCounts zeroes it).
func (sc *Scratch) histBuf(n int) []int32 {
	sc.hist = grow(sc.hist, n)
	return sc.hist
}

// curveDays returns the days of the first m ARC curve points, reusing one
// buffer: its contents never change, only its length grows.
func (sc *Scratch) curveDays(m int) []float64 {
	if len(sc.days) < m {
		sc.days = curveDays(m)
	}
	return sc.days[:m]
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
