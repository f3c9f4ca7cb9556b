package detect

import (
	"slices"

	"repro/internal/dataset"
)

// MEResult is the outcome of the signal-model-change detector on one series.
type MEResult struct {
	Curve     Curve      // relative AR model error per window center
	Intervals []Interval // windows whose model error dropped below threshold
}

// Suspicious reports whether any window dropped below the ME threshold.
func (r MEResult) Suspicious() bool { return len(r.Intervals) > 0 }

// ModelError runs the signal-model-change detector of Section IV-E (the
// detector of Yang et al. 2007): the ratings in each sliding window of
// MEWindowRatings ratings are fitted with an AR(MEOrder) model via the
// covariance method; honest ratings look like white noise (relative model
// error near 1) and a window is suspicious when the relative model error
// drops below METhreshold — a predictable "signal" from collaborative
// raters is present.
func ModelError(s dataset.Series, cfg Config) MEResult {
	return modelErrorWith(NewScratch(), s, cfg)
}

// modelErrorWith is the ME kernel (meExtend from no windows) plus the
// curve and merged intervals of the windows whose fit succeeded. A window
// can drop out when its AR fit fails, so the curve grows by append: in the
// degenerate all-windows-fail case it stays nil, like the reference's.
func modelErrorWith(sc *Scratch, s dataset.Series, cfg Config) MEResult {
	fits := meExtend(sc, s, cfg, nil)
	res := MEResult{Intervals: meIntervals(s, cfg, fits)}
	w, step := cfg.MEWindowRatings, windowStep(cfg.MEStepRatings)
	for j, f := range fits {
		if f.ok {
			start := j * step
			res.Curve.X = append(res.Curve.X, (s[start].Day+s[start+w-1].Day)/2)
			res.Curve.Y = append(res.Curve.Y, f.relErr)
		}
	}
	return res
}

// meFit is one ME window's outcome: the relative model error, when the AR
// fit succeeded.
type meFit struct {
	relErr float64
	ok     bool
}

// meExtend returns fits extended to the AR fit of every ME window of s.
// fits must hold the fits of the windows of a prefix of s under cfg (nil
// for a cold sweep); those windows end inside the prefix and are kept.
// Each new window's values are copied into one reused scratch buffer and
// fitted on the scratch's AR working memory, which reads but never retains
// its input; the fitted numbers are those of armodel.FitMethod, so the
// curve is bit-identical to modelErrorRef.
func meExtend(sc *Scratch, s dataset.Series, cfg Config, fits []meFit) []meFit {
	w, step, nWin := cfg.MEWindowRatings, windowStep(cfg.MEStepRatings), 0
	if w > 2*cfg.MEOrder {
		nWin = windowsWithin(len(s), w, step)
	}
	if len(fits) >= nWin {
		return fits
	}
	fits = slices.Grow(fits, nWin-len(fits))
	vals := sc.valsBuf(w)
	for j := len(fits); j < nWin; j++ {
		win := s[j*step : j*step+w]
		for i := range vals {
			vals[i] = win[i].Value
		}
		m, err := sc.ar.FitMethod(vals, cfg.MEOrder, cfg.MEMethod)
		fits = append(fits, meFit{relErr: m.RelErr, ok: err == nil})
	}
	return fits
}

// meIntervals returns the merged windows whose fit succeeded with a
// relative model error below METhreshold.
func meIntervals(s dataset.Series, cfg Config, fits []meFit) []Interval {
	w, step := cfg.MEWindowRatings, windowStep(cfg.MEStepRatings)
	var out []Interval
	for j, f := range fits {
		if f.ok && f.relErr < cfg.METhreshold {
			start := j * step
			out = append(out, Interval{Start: s[start].Day, End: s[start+w-1].Day})
		}
	}
	return mergeIntervals(out)
}
