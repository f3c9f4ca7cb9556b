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

// resumeEditOps names the edits FuzzResumeEdits decodes, in op order. All
// but the cancelled Resume build a new series, never writing one the state
// has seen, as dataset.Series.Insert's contract requires.
var resumeEditOps = [...]string{
	"tail insert", "out-of-order insert", "rater swap", "value edit",
	"removal", "identical content", "cancelled resume",
}

// fuzzEditDataset is a small three-product history whose raters rate
// several products, so an edit to one product moves the trust another
// product's analysis reads.
func fuzzEditDataset() *dataset.Dataset {
	const horizon = 90.0
	rng := stats.NewRNG(3)
	d := &dataset.Dataset{HorizonDays: horizon}
	for p := 0; p < 3; p++ {
		var s dataset.Series
		for j := 0; j < 40; j++ {
			s = append(s, dataset.Rating{
				Day:   rng.Float64() * horizon,
				Value: dataset.QuantizeHalfStar(3 + rng.Float64()*2),
				Rater: fmt.Sprintf("r%d", rng.IntN(30)),
			})
		}
		if p == 0 {
			// A low burst the detectors mark, by raters who also rate the
			// other products.
			for j := 0; j < 12; j++ {
				s = append(s, dataset.Rating{Day: 40 + float64(j), Value: 0.5, Rater: fmt.Sprintf("r%d", j)})
			}
		}
		s.Sort()
		d.Products = append(d.Products, dataset.Product{ID: fmt.Sprintf("p%d", p), Ratings: s})
	}
	return d
}

// FuzzResumeEdits drives one sticky EvalState through a program decoded
// from bytes, four per step: op, product, position and argument. The ops
// are resumeEditOps; after each edit the product keeps the edited
// series' header or gets a fresh copy of it (a new header, the same
// content), by the argument. Every step ends with a Resume that must equal
// a fresh memo-off Evaluate of the same data bit for bit, so the engine's
// own change detection is the only thing standing between an edit and a
// stale checkpoint. The previous step's Result must still equal its own
// Evaluate after it: a Resume never writes the rows it handed out.
func FuzzResumeEdits(f *testing.F) {
	f.Add([]byte{0, 0, 9, 1, 1, 1, 20, 1, 2, 2, 30, 1, 3, 0, 5, 1, 4, 1, 7, 1, 5, 2, 0, 1})
	f.Add([]byte{2, 0, 45, 0, 2, 1, 3, 2, 3, 2, 17, 2, 4, 0, 50, 2, 6, 1, 4, 5, 1, 0, 60, 0})
	f.Add([]byte{5, 0, 0, 2, 5, 0, 0, 0, 1, 2, 200, 1, 6, 2, 2, 7, 2, 2, 8, 1})

	eng := &Engine{Detect: detect.DefaultConfig(), Workers: 1}
	base := fuzzEditDataset()
	f.Fuzz(func(t *testing.T, program []byte) {
		d := base.Clone()
		st := NewState()
		var prev, prevWant *Result
		resume := func(label string) {
			got, want := mustResume(t, eng, st, d), reference(t, d)
			requireEqualResults(t, label, got, want)
			if prev != nil {
				requireEqualResults(t, label+": the previous step's Result", prev, prevWant)
			}
			prev, prevWant = got, want
		}
		resume("initial")
		for i := 0; i+3 < len(program) && i < 48; i += 4 {
			op := int(program[i]) % len(resumeEditOps)
			p := &d.Products[int(program[i+1])%len(d.Products)]
			pos, arg := int(program[i+2]), program[i+3]
			label := fmt.Sprintf("step %d: %s on %s", i/4, resumeEditOps[op], p.ID)
			s := p.Ratings
			switch op {
			case 0:
				last := 0.0
				if len(s) > 0 {
					last = s[len(s)-1].Day
				}
				day := min(last+float64(pos%8), d.HorizonDays-0.5)
				s = s.Insert(dataset.Rating{Day: day, Value: float64(arg%11) / 2, Rater: fmt.Sprintf("f%d", i)})
			case 1:
				day := float64(pos) * d.HorizonDays / 256
				s = s.Insert(dataset.Rating{Day: day, Value: float64(arg%11) / 2, Rater: fmt.Sprintf("r%d", arg%40)})
			case 2, 3, 4:
				if len(s) == 0 {
					break
				}
				j := pos % len(s)
				s = s.Clone()
				switch op {
				case 2:
					s[j].Rater = fmt.Sprintf("r%d", (int(arg)+1)%40)
				case 3:
					s[j].Value = math.Mod(s[j].Value+0.5*float64(1+arg%9), dataset.MaxValue+0.5)
				case 4:
					s = slices.Delete(s, j, j+1)
				}
			case 5:
				s = s.Clone()
			case 6:
				_, err := eng.Resume(newCountingCtx(1+int(arg)%24), st, d)
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Fatalf("%s: err = %v", label, err)
				}
				resume(label)
				continue
			}
			if arg%3 == 2 {
				s = s.Clone()
			}
			p.Ratings = s
			resume(label)
		}
	})
}
