// Package reference is a straight-line P-scheme: the paper's pipeline
// (four detectors, Fig. 1 fusion, Procedure 1 beta trust, the rating filter
// and Eq. 7) evaluated from scratch, written for reading, not speed. It is
// the model the engine and the service are checked against, so it shares
// none of their machinery: no detect.Prefix carry, memo, interned rater
// ordinals, engine image or worker pool. Every epoch re-analyzes every
// product's prefix with the reference kernels (kernels.go), and trust is
// a map of per-rater evidence keyed by rater ID. The one piece it borrows
// is detect.Decide, the Fig. 1 fusion, which has no optimised twin; its MC
// segment test is pinned against MeanChange by internal/detect's tests.
//
// Only tests import this package (TestOnlyTestsImport), so it is never
// linked into a binary.
package reference

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/epoch"
	"repro/internal/stats"
	"repro/internal/trust"
)

// Result is a reference evaluation: Table judges every period with
// hindsight (final marks, final trust), Published holds each period as
// published at the end of its epoch, Suspicious the final marks aligned
// with each product's series, and Trust the final trust of every rater
// with evidence.
type Result struct {
	Table      map[string][]float64
	Published  map[string][]float64
	Suspicious map[string][]bool
	Trust      map[string]float64
}

// evidence is Procedure 1's per-rater state: S and F counts by rater ID.
type evidence map[string]trust.Record

// Trust implements detect.TrustSource: the beta trust of the rater's
// evidence, 0.5 for a rater without any.
func (ev evidence) Trust(id string) float64 {
	rec, ok := ev[id]
	if !ok {
		return trust.InitialTrust
	}
	return trust.Beta(rec.S, rec.F)
}

// Evaluate runs the P-scheme over d under the detector configuration cfg.
//
// For each 30-day epoch it analyzes every product's prefix [0, end of the
// epoch) from scratch under the trust at the epoch start, folds each
// rating of the epoch into its rater's evidence (suspicious or not), and
// publishes the period with Eq. 7 over the epoch's own marks and the
// post-fold trust. It then marks every product's full series under the
// final trust and scores every period with those marks.
func Evaluate(d *dataset.Dataset, cfg detect.Config) *Result {
	n := epoch.Periods(d.HorizonDays)
	ev := evidence{}
	res := &Result{
		Table:      map[string][]float64{},
		Published:  map[string][]float64{},
		Suspicious: map[string][]bool{},
		Trust:      map[string]float64{},
	}
	for _, p := range d.Products {
		res.Published[p.ID] = make([]float64, n)
	}
	for ep := 0; ep < n; ep++ {
		lo, hi := epoch.PeriodInterval(ep, d.HorizonDays)
		type observation struct {
			rater      string
			suspicious bool
		}
		var fold []observation
		periodMarks := make([][]bool, len(d.Products))
		for i, p := range d.Products {
			if from, to := p.Ratings.BetweenIndex(lo, hi); from == to {
				continue // nothing to fold or publish
			}
			seen := p.Ratings.Between(0, hi)
			dec := detect.Decide(seen, Signals(seen, hi, cfg), cfg, ev)
			for j, r := range seen {
				if r.Day >= lo {
					fold = append(fold, observation{r.Rater, dec.Suspicious[j]})
					periodMarks[i] = append(periodMarks[i], dec.Suspicious[j])
				}
			}
		}
		for _, o := range fold {
			rec := ev[o.rater]
			if o.suspicious {
				rec.F++
			} else {
				rec.S++
			}
			ev[o.rater] = rec
		}
		for i, p := range d.Products {
			res.Published[p.ID][ep] = eq7(p.Ratings.Between(lo, hi), periodMarks[i], ev)
		}
	}
	for _, p := range d.Products {
		marks := detect.Decide(p.Ratings, Signals(p.Ratings, d.HorizonDays, cfg), cfg, ev).Suspicious
		scores := make([]float64, n)
		for k := range scores {
			lo, hi := epoch.PeriodInterval(k, d.HorizonDays)
			from, to := p.Ratings.BetweenIndex(lo, hi)
			scores[k] = eq7(p.Ratings[from:to], marks[from:to], ev)
		}
		res.Table[p.ID], res.Suspicious[p.ID] = scores, marks
	}
	for id := range ev {
		res.Trust[id] = ev.Trust(id)
	}
	return res
}

// eq7 scores one period: the ratings not marked are averaged with weights
// max(T−0.5, 0). With every weight zero it is the plain mean of the kept
// ratings, with every rating marked the plain mean of the period, and an
// empty period is NaN.
func eq7(period dataset.Series, marks []bool, ev evidence) float64 {
	if len(period) == 0 {
		return math.NaN()
	}
	var kept []float64
	var num, den float64
	for j, r := range period {
		if marks[j] {
			continue
		}
		kept = append(kept, r.Value)
		w := math.Max(ev.Trust(r.Rater)-0.5, 0)
		num += w * r.Value
		den += w
	}
	switch {
	case den > 1e-12:
		return num / den
	case len(kept) > 0:
		return stats.Mean(kept)
	default:
		return stats.Mean(period.Values())
	}
}

// Diff returns nil if got is bit-identical to r, and otherwise an error
// naming the first difference: a table or published score (NaN included),
// a mark, or a rater's final trust.
func (r *Result) Diff(got *engine.Result) error {
	if err := diffTables("table", got.Table, r.Table); err != nil {
		return err
	}
	if err := diffTables("published", got.Published, r.Published); err != nil {
		return err
	}
	if len(got.Suspicious) != len(r.Suspicious) {
		return fmt.Errorf("marks for %d products, want %d", len(got.Suspicious), len(r.Suspicious))
	}
	for id, want := range r.Suspicious {
		if !slices.Equal(got.Suspicious[id], want) {
			return fmt.Errorf("product %s: marks differ", id)
		}
	}
	snap := got.Trust.Snapshot()
	if len(snap) != len(r.Trust) {
		return fmt.Errorf("trust for %d raters, want %d", len(snap), len(r.Trust))
	}
	for _, rt := range snap {
		if want, ok := r.Trust[rt.Rater]; !ok || math.Float64bits(rt.Trust) != math.Float64bits(want) {
			return fmt.Errorf("trust(%s) = %v, want %v", rt.Rater, rt.Trust, want)
		}
	}
	return nil
}

// diffTables compares two per-product score tables bit for bit.
func diffTables(what string, got, want map[string][]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d products, want %d", what, len(got), len(want))
	}
	for id, w := range want {
		if err := DiffScores(got[id], w); err != nil {
			return fmt.Errorf("%s: product %s: %w", what, id, err)
		}
	}
	return nil
}

// DiffScores compares one product's per-period scores bit for bit, NaN
// (an empty period) included.
func DiffScores(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d periods, want %d", len(got), len(want))
	}
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			return fmt.Errorf("period %d: %v, want %v", k, got[k], want[k])
		}
	}
	return nil
}

// AttackedData builds a seeded fair dataset of three products whose
// horizon is not a multiple of 30 days (so the last period is partial),
// with one block attack of random product, window, size and direction
// injected, so the detectors mark ratings and the trust fold moves.
func AttackedData(seed uint64) (*dataset.Dataset, error) {
	rng := stats.NewRNG(seed)
	cfg := dataset.DefaultFairConfig()
	cfg.Products = 3
	cfg.HorizonDays = 95 + float64(rng.IntN(90)) + 0.5
	d, err := dataset.GenerateFair(rng, cfg)
	if err != nil {
		return nil, err
	}
	start := rng.Float64() * cfg.HorizonDays * 0.7
	span := 10 + rng.Float64()*40
	mean := 1.0
	if rng.IntN(2) == 0 {
		mean = 4.8
	}
	atk := make(dataset.Series, 20+rng.IntN(40))
	for i := range atk {
		v := stats.Clamp(mean+rng.NormFloat64()*0.4, dataset.MinValue, dataset.MaxValue)
		atk[i] = dataset.Rating{
			Day:   math.Min(start+span*float64(i)/float64(len(atk)), cfg.HorizonDays-0.01),
			Value: dataset.QuantizeHalfStar(v),
			Rater: fmt.Sprintf("atk%03d", i),
		}
	}
	return d, d.InjectUnfair(d.Products[rng.IntN(len(d.Products))].ID, atk)
}
