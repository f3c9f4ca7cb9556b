package engine

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/stats"
	"repro/internal/trust"
)

// requireEqualSnapshots fails unless two trust snapshots list the same
// raters in the same order with bit-identical trust.
func requireEqualSnapshots(t *testing.T, label string, a, b []trust.RaterTrust) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: snapshots have %d vs %d raters", label, len(a), len(b))
	}
	for i := range a {
		if a[i].Rater != b[i].Rater || math.Float64bits(a[i].Trust) != math.Float64bits(b[i].Trust) {
			t.Fatalf("%s: snapshot[%d] = %+v vs %+v", label, i, a[i], b[i])
		}
	}
}

// TestOrdinalsInvisible submits the same ratings to two states in opposite
// orders, so each state interns the raters — newcomers included, arriving
// out of day order — in a different order. Rater ordinals are a function of
// that history, not of the ratings, so every output must be bit-identical
// to a cold evaluation of the final data: tables, causal tables, marks,
// trust records and the trust snapshot.
func TestOrdinalsInvisible(t *testing.T) {
	const horizon = 150.0
	for _, seed := range []uint64{3, 11} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := stats.NewRNG(seed)
			full := testDataset(t, seed, 3, horizon)
			for i := 0; i < 12; i++ {
				r := dataset.Rating{
					Day:   rng.Float64() * horizon,
					Value: dataset.QuantizeHalfStar(rng.Float64() * 5),
					Rater: fmt.Sprintf("newcomer-%d", rng.IntN(6)),
				}
				if err := full.InjectUnfair(full.Products[i%3].ID, dataset.Series{r}); err != nil {
					t.Fatal(err)
				}
			}
			type pending struct {
				product string
				r       dataset.Rating
			}
			// Hold back a fifth of the ratings (every newcomer rating among
			// them) and split the rest into two different starting points.
			var held []pending
			bases := [2]*dataset.Dataset{{HorizonDays: horizon}, {HorizonDays: horizon}}
			for _, p := range full.Products {
				var keep dataset.Series
				for _, r := range p.Ratings {
					if r.Unfair || rng.Float64() < 0.2 {
						held = append(held, pending{p.ID, r})
					} else {
						keep = append(keep, r)
					}
				}
				for _, b := range bases {
					b.Products = append(b.Products, dataset.Product{ID: p.ID, Ratings: keep.Clone(), Version: 1})
				}
			}
			rng.Shuffle(len(held), func(i, j int) { held[i], held[j] = held[j], held[i] })

			eng := &Engine{Detect: detect.DefaultConfig(), Workers: 2}
			var results [2]*Result
			var states [2]*EvalState
			for k, d := range bases {
				st := NewState()
				mustResume(t, eng, st, d)
				for j := range held {
					ins := held[j]
					if k == 1 {
						ins = held[len(held)-1-j]
					}
					if err := touch(d, ins.product, ins.r); err != nil {
						t.Fatal(err)
					}
					if j%4 == 3 {
						mustResume(t, eng, st, d)
					}
				}
				results[k], states[k] = mustResume(t, eng, st, d), st
			}

			differ := false
			for o := 0; o < states[0].syms.Len(); o++ {
				differ = differ || states[0].syms.Name(uint32(o)) != states[1].syms.Name(uint32(o))
			}
			if !differ {
				t.Fatal("both states interned the raters in the same order; the test proves nothing")
			}
			want := reference(t, full)
			for k, res := range results {
				label := fmt.Sprintf("order %d", k)
				requireEqualResults(t, label, res, want)
				requireEqualSnapshots(t, label, res.Trust.Snapshot(), want.Trust.Snapshot())
			}
		})
	}
}

// TestHandedOutTrustImmutable reads a Result's trust from another goroutine
// while later Resumes on the same state intern new raters (run it under
// -race). The handed-out manager must stay race-free and its values must
// never change.
func TestHandedOutTrustImmutable(t *testing.T) {
	const horizon = 150.0
	d := versionedTestDataset(t, 5, 3, horizon)
	eng := &Engine{Detect: detect.DefaultConfig(), Workers: 2}
	st := NewState()
	res := mustResume(t, eng, st, d)
	trustOf := res.Trust
	snap := trustOf.Snapshot()
	probe := []string{snap[0].Rater, snap[len(snap)/2].Rater, "late-0", "late-5", "nobody"}
	want := make([]float64, len(probe))
	for i, id := range probe {
		want[i] = trustOf.Trust(id)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			for i, id := range probe {
				if got := trustOf.Trust(id); math.Float64bits(got) != math.Float64bits(want[i]) {
					select {
					case errs <- fmt.Sprintf("Trust(%q) = %v, was %v", id, got, want[i]):
					default:
					}
					return
				}
			}
			if n := trustOf.Len(); n != len(snap) {
				select {
				case errs <- fmt.Sprintf("Len = %d, was %d", n, len(snap)):
				default:
				}
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	for i := 0; i < 8; i++ {
		r := dataset.Rating{Day: horizon - 40 + 4*float64(i), Value: 1, Rater: fmt.Sprintf("late-%d", i)}
		if err := touch(d, d.Products[i%3].ID, r); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Resume(context.Background(), st, d); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal("handed-out trust changed: " + e)
	default:
	}
	requireEqualSnapshots(t, "after later Resumes", trustOf.Snapshot(), snap)
	if got := st.syms.Len(); got < len(snap)+8 {
		t.Fatalf("state interned %d raters, want at least %d: the later Resumes added none", got, len(snap)+8)
	}
}

// TestReinternNamesEveryRating edits a series at random — inserts,
// deletions, replacements, repeated raters — and requires the column
// reintern builds for each version over one table to name each rating's
// rater exactly.
func TestReinternNamesEveryRating(t *testing.T) {
	rng := stats.NewRNG(17)
	st := &EvalState{syms: trust.NewSymbols()}
	rater := func() string { return fmt.Sprintf("r%d", rng.IntN(12)) }
	var s dataset.Series
	for step := 0; step < 500; step++ {
		next := append(dataset.Series(nil), s...)
		switch k := rng.IntN(4); {
		case k == 0 || len(next) == 0:
			at := rng.IntN(len(next) + 1)
			next = append(next[:at], append(dataset.Series{{Rater: rater()}}, next[at:]...)...)
		case k == 1:
			at := rng.IntN(len(next))
			next = append(next[:at], next[at+1:]...)
		case k == 2:
			next[rng.IntN(len(next))].Rater = rater()
		default:
			next = next[:rng.IntN(len(next)+1)]
		}
		s = next
		col := st.reintern(s)
		if len(col) != len(s) {
			t.Fatalf("step %d: column has %d ordinals for %d ratings", step, len(col), len(s))
		}
		for j, o := range col {
			if got := st.syms.Name(o); got != s[j].Rater {
				t.Fatalf("step %d: rating %d of rater %s has ordinal %d, which names %s", step, j, s[j].Rater, o, got)
			}
		}
	}
}
