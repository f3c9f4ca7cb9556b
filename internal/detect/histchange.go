package detect

import (
	"slices"
	"sort"

	"repro/internal/cluster"
	"repro/internal/dataset"
)

// windowStep clamps a configured slide step to at least one rating.
func windowStep(step int) int {
	if step <= 0 {
		return 1
	}
	return step
}

// windowsWithin returns how many windows of w ratings, slid by step, end
// inside the first k ratings.
func windowsWithin(k, w, step int) int {
	if w <= 0 || k < w {
		return 0
	}
	return (k-w)/windowStep(step) + 1
}

// hcExtend runs the histogram-change detector of Section IV-D: within
// each sliding window of HCWindowRatings ratings, the values are cut into
// two single-linkage clusters and HC(k) = min(n1/n2, n2/n1) (Eq. 6); a
// window is suspicious (hcIntervals) when a *separated* second population
// appears — the size ratio reaches HCThreshold and the gap between the
// clusters is at least HCMinGap rating points.
//
// It returns ratios extended to the HC statistic of every window of s.
// ratios must hold the statistics of the windows of a prefix of s under
// cfg (nil for a cold sweep); those windows end inside the prefix, so
// their inputs are unchanged and they are kept. The sweep resumes at the
// first window past them.
//
// The window values are kept in an order-maintained buffer (binary-search
// insert and evict per slide instead of a fresh sort per window), on which
// single-linkage 2-clustering degenerates to one max-adjacent-gap scan
// (cluster.Split2Sorted). The reference kernel sorts every window and
// clusters it via cluster.SingleLinkage; the sorted buffer here holds the
// same value multiset, so every gap, cut and ratio is bit-identical (see
// DESIGN.md §10). Cost per window drops from O(w log w) + allocations to
// O(w) with none.
func hcExtend(sc *Scratch, s dataset.Series, cfg Config, ratios []float64) []float64 {
	w, step, nWin := cfg.HCWindowRatings, windowStep(cfg.HCStepRatings), 0
	if w > 1 {
		nWin = windowsWithin(len(s), w, step)
	}
	from := len(ratios)
	if from >= nWin {
		return ratios
	}
	ratios = slices.Grow(ratios, nWin-from)
	start := from * step
	win := sc.windowBuf(w)
	for i := start; i < start+w; i++ {
		win = insertSorted(win, s[i].Value)
	}
	for ; ; start += step {
		ratios = append(ratios, sortedGapRatio(win, cfg.HCMinGap))
		next := start + step
		if next+w > len(s) {
			break
		}
		// Slide: evict the ratings leaving the window, insert the ones
		// entering it. When step ≥ w the ranges are disjoint and this
		// degenerates to a full drain and refill.
		evictEnd := start + w
		if evictEnd > next {
			evictEnd = next
		}
		for i := start; i < evictEnd; i++ {
			win = removeSorted(win, s[i].Value)
		}
		insStart := start + w
		if insStart < next {
			insStart = next
		}
		for i := insStart; i < next+w; i++ {
			win = insertSorted(win, s[i].Value)
		}
	}
	return ratios
}

// hcIntervals returns the merged windows whose ratio reaches HCThreshold.
func hcIntervals(s dataset.Series, cfg Config, ratios []float64) []Interval {
	w, step := cfg.HCWindowRatings, windowStep(cfg.HCStepRatings)
	var out []Interval
	for j, ratio := range ratios {
		if ratio >= cfg.HCThreshold {
			start := j * step
			out = append(out, Interval{Start: s[start].Day, End: s[start+w-1].Day})
		}
	}
	return mergeIntervals(out)
}

// sortedGapRatio is clusterGapRatio on an already-sorted window: the
// 2-cluster single-linkage cut is the largest adjacent gap (earliest
// position on ties, matching SingleLinkage's deterministic tie-break), so
// the cluster sizes and the separating gap fall out of one scan.
//
//lint:hotpath
func sortedGapRatio(sorted []float64, minGap float64) float64 {
	if len(sorted) < 2 {
		return 0
	}
	n1, gap := cluster.Split2Sorted(sorted)
	if gap < minGap {
		return 0
	}
	r := float64(n1) / float64(len(sorted)-n1)
	if r > 1 {
		r = 1 / r
	}
	return r
}

// insertSorted inserts v into ascending-sorted win, keeping it sorted.
func insertSorted(win []float64, v float64) []float64 {
	i := sort.SearchFloat64s(win, v)
	win = append(win, 0)
	copy(win[i+1:], win[i:])
	win[i] = v
	return win
}

// removeSorted removes one occurrence of v from ascending-sorted win. v
// must be present (the kernel only evicts values it previously inserted);
// with duplicates, removing any occurrence leaves the same multiset.
func removeSorted(win []float64, v float64) []float64 {
	i := sort.SearchFloat64s(win, v)
	copy(win[i:], win[i+1:])
	return win[:len(win)-1]
}

// mergeIntervals coalesces overlapping or touching intervals (inputs must be
// ordered by Start, which sliding windows guarantee).
func mergeIntervals(ivs []Interval) []Interval {
	if len(ivs) == 0 {
		return nil
	}
	out := []Interval{ivs[0]}
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.Start <= last.End {
			if iv.End > last.End {
				last.End = iv.End
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}
