package engine

import (
	"context"
	"fmt"
	"math"
	"slices"
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
					b.Products = append(b.Products, dataset.Product{ID: p.ID, Ratings: keep.Clone()})
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

// TestHandedOutResultImmutable reads everything each Result hands out —
// every Table, Suspicious and Published row, and its trust — from other
// goroutines while later Resumes on the same state run (run it under
// -race). Rows and trust are the state's own memory, shared read-only
// (Result), so no later Resume may write them. Between Resumes the data
// takes tail inserts by new raters, a mid-history value edit that moves
// published scores of periods earlier Results hold, a removal, and a
// Restore of the state from its own image. The inserts intern new raters:
// each later Resume forks the symbol table its earlier Results read,
// sharing their read-only base, and together they add more than a quarter
// of the table, so some fork's overlay passes 1/8 of its base and is
// flattened into a new base. Every handed-out row and manager must stay
// race-free and its values must never change.
func TestHandedOutResultImmutable(t *testing.T) {
	const horizon = 150.0
	const resumes = 8
	d := testDataset(t, 5, 3, horizon)
	eng := &Engine{Detect: detect.DefaultConfig(), Workers: 2}
	st := NewState()
	ctx := context.Background()

	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 1)
	fail := func(msg string) {
		select {
		case errs <- msg:
		default:
		}
	}
	type watched struct {
		res, want *Result // want: a deep copy taken when res was handed out
		snap      []trust.RaterTrust
	}
	var handed []watched
	// watch reads res's rows, and its trust of probe, in a loop until done.
	watch := func(res *Result, probe []string) {
		w := watched{res, cloneResult(res), res.Trust.Snapshot()}
		handed = append(handed, w)
		want := make([]float64, len(probe))
		for i, id := range probe {
			want[i] = res.Trust.Trust(id)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if msg := resultChange(res, w.want); msg != "" {
					fail(msg)
					return
				}
				for i, id := range probe {
					if got := res.Trust.Trust(id); math.Float64bits(got) != math.Float64bits(want[i]) {
						fail(fmt.Sprintf("Trust(%q) = %v, was %v", id, got, want[i]))
						return
					}
				}
				if n := res.Trust.Len(); n != len(w.snap) {
					fail(fmt.Sprintf("Len = %d, was %d", n, len(w.snap)))
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	// edit replaces product k's series by a copy changed by fn.
	edit := func(k int, fn func(s dataset.Series) dataset.Series) {
		p := &d.Products[k]
		p.Ratings = fn(p.Ratings.Clone())
	}

	snap := mustResume(t, eng, st, d).Trust.Snapshot()
	base := st.syms.Len()
	perResume := base/(4*resumes) + 2
	late := 0
	for i := 0; i <= resumes; i++ {
		res := mustResume(t, eng, st, d)
		watch(res, []string{snap[0].Rater, snap[len(snap)/2].Rater, "late-0", fmt.Sprintf("late-%d", late-1), fmt.Sprintf("late-%d", late), "nobody"})
		if i == resumes {
			break
		}
		switch i {
		case 2: // every rating of epoch 1 of one product changes its value
			edit(1, func(s dataset.Series) dataset.Series {
				from, to := s.BetweenIndex(30, 60)
				for j := from; j < to; j++ {
					s[j].Value = math.Mod(s[j].Value+1.5, dataset.MaxValue+0.5)
				}
				return s
			})
		case 4:
			edit(2, func(s dataset.Series) dataset.Series { return slices.Delete(s, len(s)/3, len(s)/3+1) })
		case 6:
			if _, exact, err := eng.Restore(ctx, st, d, st.Image(ctx)); err != nil || !exact {
				t.Fatalf("restoring the state from its own image: exact %v, %v", exact, err)
			}
		}
		for j := 0; j < perResume; j++ {
			r := dataset.Rating{Day: horizon - 40 + 4*float64(i), Value: 1, Rater: fmt.Sprintf("late-%d", late)}
			if err := touch(d, d.Products[late%3].ID, r); err != nil {
				t.Fatal(err)
			}
			late++
		}
	}
	close(done)
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal("a handed-out Result changed: " + e)
	default:
	}
	for k, h := range handed {
		label := fmt.Sprintf("Result %d after later Resumes", k)
		if msg := resultChange(h.res, h.want); msg != "" {
			t.Fatalf("%s: %s", label, msg)
		}
		requireEqualSnapshots(t, label, h.res.Trust.Snapshot(), h.snap)
	}
	// The mid-history edit must have rewritten published periods ahead of
	// the tail, or the rows it would have written prove nothing.
	if before, after := handed[2].want.Published[d.Products[1].ID], handed[3].want.Published[d.Products[1].ID]; resultRowsEqual(before[:3], after[:3]) {
		t.Fatalf("the mid-history edit left the published periods 0-2 of %s unchanged: %v", d.Products[1].ID, before)
	}
	if got := st.syms.Len(); got != base+late || 8*late <= 2*base {
		t.Fatalf("state interned %d raters over a base of %d, %d of them late: want every late rater, more than a quarter of the base", got, base, late)
	}
}

// cloneResult deep-copies res's rows; the copy shares res's trust.
func cloneResult(res *Result) *Result {
	c := &Result{Table: map[string][]float64{}, Suspicious: map[string][]bool{}, Trust: res.Trust, Published: map[string][]float64{}}
	for id := range res.Table {
		c.Table[id] = slices.Clone(res.Table[id])
		c.Suspicious[id] = slices.Clone(res.Suspicious[id])
		c.Published[id] = slices.Clone(res.Published[id])
	}
	return c
}

// resultChange names the first row of got that is not bit-identical to
// want's, or returns "". It only reads, so other goroutines may call it.
func resultChange(got, want *Result) string {
	for id := range want.Table {
		switch {
		case !resultRowsEqual(got.Table[id], want.Table[id]):
			return "the table row of " + id + " changed"
		case !slices.Equal(got.Suspicious[id], want.Suspicious[id]):
			return "the marks of " + id + " changed"
		case !resultRowsEqual(got.Published[id], want.Published[id]):
			return "the published row of " + id + " changed"
		}
	}
	return ""
}

// resultRowsEqual compares two score rows bit for bit, NaN included.
func resultRowsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestReinternNamesEveryRating edits a series at random — inserts,
// deletions, replacements and truncations at its head, in its middle and
// at its tail, with repeated raters — and requires the column reintern
// builds for each new series, keeping the previous column up to the first
// rating that differs (firstChange), to name each rating's rater exactly.
// The table is frozen now and then, as a Resume's managers freeze it, so
// new raters also land in forks, and enough arrive to flatten overlays.
func TestReinternNamesEveryRating(t *testing.T) {
	rng := stats.NewRNG(17)
	st := &EvalState{syms: trust.NewSymbols(0)}
	rater := func() string { return fmt.Sprintf("r%d", rng.IntN(300)) }
	var s dataset.Series
	var col []uint32
	for step := 0; step < 2000; step++ {
		next := append(dataset.Series(nil), s...)
		at := 0 // head
		switch rng.IntN(3) {
		case 1:
			at = rng.IntN(len(next) + 1) // middle
		case 2:
			at = len(next) // tail
		}
		switch k := rng.IntN(4); {
		case k == 0 || at == len(next):
			next = append(next[:at], append(dataset.Series{{Rater: rater()}}, next[at:]...)...)
		case k == 1:
			next = append(next[:at], next[at+1:]...)
		case k == 2:
			next[at].Rater = rater()
		default:
			next = next[:at]
		}
		if step%7 == 0 {
			trust.NewManager().CloneOver(st.syms)
		}
		k, _ := firstChange(s, next)
		if k > len(col) || k > len(next) {
			t.Fatalf("step %d: firstChange = %d for columns of %d and %d ratings", step, k, len(col), len(next))
		}
		s, col = next, st.reintern(next, col[:k])
		if len(col) != len(s) {
			t.Fatalf("step %d: column has %d ordinals for %d ratings", step, len(col), len(s))
		}
		for j, o := range col {
			if got := st.syms.Name(o); got != s[j].Rater {
				t.Fatalf("step %d: rating %d of rater %s has ordinal %d, which names %s", step, j, s[j].Rater, o, got)
			}
		}
	}
	if st.syms.Len() < 250 {
		t.Fatalf("table holds %d raters: the edits interned too few to flatten an overlay", st.syms.Len())
	}
}
