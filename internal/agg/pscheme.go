package agg

import (
	"context"

	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/engine"
)

// PScheme is the paper's proposed signal-based reliable rating aggregation
// system (Section IV). Ratings are analyzed epoch by epoch (one trust epoch
// per 30-day period): the detector stack plus Figure 1 fusion marks
// suspicious ratings, Procedure 1 folds the marks into per-rater beta trust,
// the rating filter drops marked ratings, and Eq. 7 aggregates the rest with
// weights max(T−0.5, 0).
//
// PScheme is a thin wrapper over internal/engine, which runs the pipeline in
// explicit stages with per-product parallelism inside each epoch. Callers
// that want checkpointed incremental re-evaluation (internal/server) obtain
// the engine via Engine and drive engine.EvalState directly.
type PScheme struct {
	// Detect configures the four detectors and the fusion.
	Detect detect.Config
	// DisableFilter keeps suspicious ratings in the aggregation (ablation:
	// trust weighting alone must then carry the defense).
	DisableFilter bool
	// DisableTrustWeighting aggregates with equal weights instead of
	// Eq. 7's max(T−0.5, 0) (ablation: the rating filter alone).
	DisableTrustWeighting bool
	// Workers bounds the engine's per-product parallelism: 0 means
	// GOMAXPROCS, 1 runs serially. Results are bit-identical either way.
	Workers int
}

var _ Scheme = (*PScheme)(nil)

// NewPScheme returns a P-scheme with the paper's default detector
// configuration.
func NewPScheme() *PScheme {
	return &PScheme{Detect: detect.DefaultConfig()}
}

// Name implements Scheme.
func (*PScheme) Name() string { return "P" }

// Engine returns the evaluation engine configured like this scheme.
func (p *PScheme) Engine() *engine.Engine {
	return &engine.Engine{
		Detect:                p.Detect,
		DisableFilter:         p.DisableFilter,
		DisableTrustWeighting: p.DisableTrustWeighting,
		Workers:               p.Workers,
	}
}

// Result is the full outcome of a P-scheme evaluation: the table, the
// per-rating suspicious marks aligned with each product's sorted series,
// the final trust and the causal Published table. Its rows and trust are
// read-only (engine.Result): copy a row, or Clone the trust, to change it.
type Result = engine.Result

// Aggregates implements Scheme.
func (p *PScheme) Aggregates(d *dataset.Dataset) Table {
	return p.Evaluate(d).Table
}

// Evaluate runs the full pipeline and returns the aggregates along with the
// suspicious marks and final rater trust. The Scheme interface is
// deadline-free (simulation callers never cancel), so this runs under the
// background context; servers that need cancellation drive engine.Resume
// with their own context instead.
func (p *PScheme) Evaluate(d *dataset.Dataset) *Result {
	res, err := p.Engine().Evaluate(context.Background(), d)
	if err != nil {
		// Background contexts cannot be cancelled and the engine returns
		// errors only for cancellation; treat anything else as a bug.
		panic("agg: Evaluate failed under background context: " + err.Error())
	}
	return res
}
