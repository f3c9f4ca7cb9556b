package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/stats"
)

// carryOps names the steps of TestStoredCarryProgram, in op order.
var carryOps = [...]string{
	"tail insert", "out-of-order insert", "same-day insert", "duplicate-value insert",
	"unversioned round trip", "reset", "cancelled resume",
	"rater swap", "value edit", "removal", "version bump",
}

// TestStoredCarryProgram drives one EvalState through a seeded random
// program of the edits a served product sees between two Resumes — tail,
// out-of-order, same-day and duplicate-value inserts, each with a version
// bump; a product flipped to Version 0 and back; Reset; and a Resume
// cancelled mid-pass — and after every step requires the state's next
// Resume to equal a fresh memo-off evaluation bit for bit. Every product's
// detector carry outlives each Resume, so each step meets carries left by
// the steps before it. The last four ops are edits only the engine's own
// change detection sees, each a new series under a bumped version: a
// rating's rater swapped at the same day and value (the detector carry
// never reads raters), a rating's value changed, a rating removed, and a
// version bump over identical content.
func TestStoredCarryProgram(t *testing.T) {
	const horizon = 150.0
	for _, seed := range []uint64{5, 17} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := stats.NewRNG(seed)
			d := versionedTestDataset(t, seed, 3, horizon)
			eng := &Engine{Detect: detect.DefaultConfig(), Workers: 1}
			st := NewState()
			requireEqualResults(t, "initial", mustResume(t, eng, st, d), reference(t, d))
			var ran [len(carryOps)]int
			for step := 0; step < 48; step++ {
				op := rng.IntN(len(carryOps))
				p := &d.Products[rng.IntN(len(d.Products))]
				s := p.Ratings
				at := s[rng.IntN(len(s))]
				r := dataset.Rating{
					Value: dataset.QuantizeHalfStar(rng.Float64() * 5),
					Rater: fmt.Sprintf("carry-%d", rng.IntN(12)),
				}
				label := fmt.Sprintf("step %d: %s on %s", step, carryOps[op], p.ID)
				switch op {
				case 0:
					r.Day = min(s[len(s)-1].Day+rng.Float64()*3, horizon-0.01)
				case 1:
					r.Day = rng.Float64() * s[len(s)-1].Day
				case 2:
					r.Day = at.Day
				case 3:
					r.Day, r.Value = at.Day, at.Value
				case 4:
					v := p.Version
					p.Version = 0
					requireEqualResults(t, label+" (unversioned)", mustResume(t, eng, st, d), reference(t, d))
					p.Version = v
				case 5:
					st.Reset()
				case 6:
					_, err := eng.Resume(newCountingCtx(2+rng.IntN(20)), st, d)
					if err != nil && !errors.Is(err, context.Canceled) {
						t.Fatalf("%s: err = %v", label, err)
					}
				case 7, 8, 9, 10:
					j := slices.Index(s, at)
					s = s.Clone()
					switch op {
					case 7:
						s[j].Rater = fmt.Sprintf("swap-%d", step)
					case 8:
						s[j].Value = math.Mod(s[j].Value+1, dataset.MaxValue)
					case 9:
						s = slices.Delete(s, j, j+1)
					}
					p.Ratings = s
					p.Version++
				}
				if op <= 3 {
					if err := touch(d, p.ID, r); err != nil {
						t.Fatal(err)
					}
				}
				ran[op]++
				requireEqualResults(t, label, mustResume(t, eng, st, d), reference(t, d))
			}
			for op, n := range ran {
				if n == 0 {
					t.Fatalf("the program never ran a %s; the test has lost its teeth", carryOps[op])
				}
			}
		})
	}
}

// TestStateRebindsOnConfigChange: a state resumed by an engine with a
// different configuration must not reuse the checkpoints, memo entries or
// carries computed under the old one. Each Resume must equal a fresh
// evaluation under the resuming engine's configuration.
func TestStateRebindsOnConfigChange(t *testing.T) {
	d := versionedTestDataset(t, 3, 4, 300)
	tuned := detect.DefaultConfig()
	tuned.MCThreshold1, tuned.METhreshold = 0.3, 0.9
	engines := []*Engine{
		{Detect: detect.DefaultConfig()},
		{Detect: tuned},
		{Detect: detect.DefaultConfig(), DisableFilter: true},
		{Detect: detect.DefaultConfig(), DisableTrustWeighting: true},
		{Detect: detect.DefaultConfig(), Workers: 3},
	}
	st := NewState()
	for i, eng := range engines {
		label := fmt.Sprintf("engine %d %+v", i, *eng)
		requireEqualResults(t, label, mustResume(t, eng, st, d), mustEvaluate(t, eng, d))
	}
	// Workers only schedules: changing it alone keeps the state, so the
	// unchanged data replays from the memo.
	before := st.Stats().Analyzed
	mustResume(t, &Engine{Detect: detect.DefaultConfig(), Workers: 1}, st, d)
	if n := st.Stats().Analyzed - before; n != 0 {
		t.Fatalf("a Workers change re-ran %d analyses; the state was rebound", n)
	}
}
