package main

import (
	"encoding/json"
	"fmt"
	"net/url"
	"sort"

	"repro/internal/challenge"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/stats"
)

// shape is the dataset a workload serves: fair Poisson traffic from
// dataset.GenerateFair over horizon days for 9 products, plus the
// challenge-shaped attack from core.Generator (50 unfair ratings on each of
// two downgraded and two boosted products) starting at the split day.
// Days [0, split) are loaded at set-up; the rest is streamed in day order.
type shape struct {
	horizon    float64
	split      float64
	attackDays float64
	// streamMax caps the streamed ratings at the first streamMax in day
	// order (0 streams all of them).
	streamMax int
}

// rating is one streamed submission with its pre-encoded request body, so
// JSON encoding is input generation, not measured work.
type rating struct {
	product string
	r       dataset.Rating
	body    []byte
}

// inputs are everything generated from the seed. The service only ever
// sees loaded (through Load) and stream (through submissions).
type inputs struct {
	horizon  float64
	products []string
	loaded   *dataset.Dataset
	stream   []rating
}

func makeInputs(seed uint64, sh shape) (*inputs, error) {
	fcfg := dataset.DefaultFairConfig()
	fcfg.HorizonDays = sh.horizon
	fair, err := dataset.GenerateFair(stats.NewRNG(seed), fcfg)
	if err != nil {
		return nil, err
	}
	ccfg := challenge.DefaultConfig()
	fairBy := make(map[string]dataset.Series)
	profiles := make(map[string]core.Profile)
	for _, id := range ccfg.Targets() {
		p, err := fair.Product(id)
		if err != nil {
			return nil, err
		}
		fairBy[id] = p.Ratings
		prof := core.Profile{Bias: 0.8, StdDev: 0.3, Count: 50,
			StartDay: sh.split, DurationDays: sh.attackDays, Correlation: core.Independent, Quantize: true}
		for _, d := range ccfg.DowngradeTargets {
			if d == id {
				prof.Bias, prof.StdDev = -1.5, 0.5
			}
		}
		profiles[id] = prof
	}
	gen := core.NewGenerator(seed^0x5eed, core.DefaultRaters(ccfg.BiasedRaters))
	atk, err := gen.Generate(profiles, fairBy)
	if err != nil {
		return nil, err
	}
	full, err := atk.Apply(fair)
	if err != nil {
		return nil, err
	}

	in := &inputs{
		horizon:  sh.horizon,
		products: full.ProductIDs(),
		loaded:   &dataset.Dataset{HorizonDays: sh.horizon},
	}
	for _, p := range full.Products {
		lp := dataset.Product{ID: p.ID}
		for _, r := range p.Ratings {
			if r.Day < sh.split {
				lp.Ratings = append(lp.Ratings, r)
				continue
			}
			in.stream = append(in.stream, rating{product: p.ID, r: r})
		}
		in.loaded.Products = append(in.loaded.Products, lp)
	}
	// Day order across products; ties keep product order.
	sort.SliceStable(in.stream, func(i, j int) bool { return in.stream[i].r.Day < in.stream[j].r.Day })
	if sh.streamMax > 0 && len(in.stream) > sh.streamMax {
		in.stream = in.stream[:sh.streamMax]
	}
	for i := range in.stream {
		s := &in.stream[i]
		if s.body, err = json.Marshal(map[string]any{
			"product": s.product, "rater": s.r.Rater, "value": s.r.Value, "day": s.r.Day,
		}); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// accepted returns the dataset the service must hold once the given
// streamed ratings are acknowledged: the loaded history plus those ratings,
// each series in day order as the store keeps it. fairOnly drops the
// attack's ratings (the Manipulation Power baseline).
func (in *inputs) accepted(acked []bool, fairOnly bool) *dataset.Dataset {
	d := &dataset.Dataset{HorizonDays: in.horizon}
	idx := make(map[string]int, len(in.products))
	for i, p := range in.loaded.Products {
		idx[p.ID] = i
		var s dataset.Series
		for _, r := range p.Ratings {
			if !fairOnly || !r.Unfair {
				s = append(s, r)
			}
		}
		d.Products = append(d.Products, dataset.Product{ID: p.ID, Ratings: s})
	}
	for i, s := range in.stream {
		if acked[i] && (!fairOnly || !s.r.Unfair) {
			p := &d.Products[idx[s.product]]
			p.Ratings = append(p.Ratings, s.r)
		}
	}
	for i := range d.Products {
		d.Products[i].Ratings.Sort()
	}
	return d
}

func reportPath(product string) string {
	return fmt.Sprintf("/products/%s/report", url.PathEscape(product))
}

func scoresPath(product string) string {
	return fmt.Sprintf("/products/%s/scores", url.PathEscape(product))
}
