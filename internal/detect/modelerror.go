package detect

import (
	"slices"

	"repro/internal/dataset"
)

// meFit is one ME window's outcome: the relative model error, when the AR
// fit succeeded.
type meFit struct {
	relErr float64
	ok     bool
}

// meExtend runs the signal-model-change detector of Section IV-E (the
// detector of Yang et al. 2007): the ratings in each sliding window of
// MEWindowRatings ratings are fitted with an AR(MEOrder) model via the
// covariance method; honest ratings look like white noise (relative model
// error near 1) and a window is suspicious (meIntervals) when the relative
// model error drops below METhreshold — a predictable "signal" from
// collaborative raters is present.
//
// It returns fits extended to the AR fit of every ME window of s.
// fits must hold the fits of the windows of a prefix of s under cfg (nil
// for a cold sweep); those windows end inside the prefix and are kept.
// Each new window's values are copied into one reused scratch buffer and
// fitted on the scratch's AR working memory, which reads but never retains
// its input; the fitted numbers are those of armodel.FitMethod, so the
// curve is bit-identical to reference.ModelError.
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
