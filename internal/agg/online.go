package agg

import (
	"context"

	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/engine"
)

// OnlinePScheme is the P-scheme under the rating challenge's *publication*
// semantics: the challenge website recomputed and published each product's
// score at the end of every 30-day period, using only the ratings observed
// so far. Unlike PScheme — which judges every period retrospectively with
// the full series in view — the online variant can never revise a published
// score, so an attack that only becomes detectable after its end still
// poisons the periods it landed in. Comparing the two quantifies the value
// of hindsight (see the experiments package).
//
// Like PScheme it is a thin wrapper over internal/engine: the engine's
// epoch loop publishes every period as it completes (engine.Result's
// Published table), and Aggregates returns that table.
type OnlinePScheme struct {
	// Detect configures the detectors and fusion.
	Detect detect.Config
}

var _ Scheme = (*OnlinePScheme)(nil)

// NewOnlinePScheme returns an online P-scheme with the default detector
// configuration.
func NewOnlinePScheme() *OnlinePScheme {
	return &OnlinePScheme{Detect: detect.DefaultConfig()}
}

// Name implements Scheme.
func (*OnlinePScheme) Name() string { return "P-online" }

// Aggregates implements Scheme: period k's score is computed at day
// 30·(k+1) from the ratings observed in [0, 30·(k+1)), with the trust state
// accumulated causally up to that day, and is never revised.
func (p *OnlinePScheme) Aggregates(d *dataset.Dataset) Table {
	res, err := engine.New(p.Detect).Evaluate(context.Background(), d)
	if err != nil {
		// As in PScheme.Evaluate: only cancellation errors, and the
		// background context cannot be cancelled.
		panic("agg: online Evaluate failed under background context: " + err.Error())
	}
	return Table(res.Published)
}
