package agg

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/trust"
)

// onlineReference is the standalone online P-scheme loop OnlinePScheme
// used before publication moved into the engine, kept verbatim as the
// reference the engine's causal table must match bit for bit: per epoch,
// analyze every product's prefix, fold the epoch's per-rater counts into
// trust, then publish the period with the post-fold trust.
func onlineReference(p *OnlinePScheme, d *dataset.Dataset) Table {
	mgr := trust.NewManager()
	n := Periods(d.HorizonDays)
	out := make(Table, len(d.Products))
	for _, prod := range d.Products {
		out[prod.ID] = make([]float64, n)
	}
	marks := make(map[string][]bool, len(d.Products))
	for _, prod := range d.Products {
		marks[prod.ID] = make([]bool, len(prod.Ratings))
	}

	for epoch := 0; epoch < n; epoch++ {
		lo, hi := PeriodInterval(epoch, d.HorizonDays)
		type counts struct{ n, f int }
		perRater := make(map[string]counts)
		// Judge this epoch's ratings from the data published so far.
		for _, prod := range d.Products {
			seen := prod.Ratings.Between(0, hi)
			rep := detect.Analyze(seen, hi, p.Detect, mgr)
			m := marks[prod.ID]
			for i, r := range seen {
				if r.Day < lo {
					continue
				}
				if rep.Suspicious[i] {
					m[i] = true
				}
				c := perRater[r.Rater]
				c.n++
				if rep.Suspicious[i] {
					c.f++
				}
				perRater[r.Rater] = c
			}
		}
		// Procedure 1 trust update happens before the score is published
		// (the paper computes trust at tˆ(k) including epoch k's marks).
		//lint:orderindependent integer-count fold: Observe adds small integers to float64 evidence, which is exact and commutative, so iteration order cannot change any trust value
		for rater, c := range perRater {
			mgr.Observe(rater, c.n, c.f)
		}
		// Publish this period's scores with today's trust — final.
		for _, prod := range d.Products {
			out[prod.ID][epoch] = onlineReferencePublish(prod.Ratings, marks[prod.ID], lo, hi, mgr)
		}
	}
	return out
}

func onlineReferencePublish(s dataset.Series, marks []bool, lo, hi float64, mgr *trust.Manager) float64 {
	// Slice the (sorted) period by index so the marks align by offset —
	// O(len(period) + log len(s)) instead of a full-series scan per period.
	start, end := s.BetweenIndex(lo, hi)
	if start == end {
		return math.NaN()
	}
	period := s[start:end]
	kept := make([]bool, len(period))
	for j := range period {
		kept[j] = !marks[start+j]
	}
	return weightedMean(period, kept, func(rater string) float64 {
		return math.Max(mgr.Trust(rater)-0.5, 0)
	})
}

// attackedData builds a seeded fair dataset whose horizon is not a
// multiple of 30 (so the last period is partial) and injects one block
// attack — random product, window, size and direction — so the detectors
// mark ratings and the trust fold moves.
func attackedData(t testing.TB, seed uint64) *dataset.Dataset {
	t.Helper()
	rng := stats.NewRNG(seed)
	cfg := dataset.DefaultFairConfig()
	cfg.Products = 3
	cfg.HorizonDays = 95 + float64(rng.IntN(90)) + 0.5
	if math.Mod(cfg.HorizonDays, 30) == 0 {
		t.Fatalf("horizon %v is a multiple of 30", cfg.HorizonDays)
	}
	d, err := dataset.GenerateFair(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := rng.Float64() * cfg.HorizonDays * 0.7
	span := 10 + rng.Float64()*40
	mean := 1.0
	if rng.IntN(2) == 0 {
		mean = 4.8
	}
	n := 20 + rng.IntN(40)
	atk := make(dataset.Series, n)
	for i := range atk {
		v := stats.Clamp(mean+rng.NormFloat64()*0.4, dataset.MinValue, dataset.MaxValue)
		atk[i] = dataset.Rating{
			Day:   math.Min(start+span*float64(i)/float64(n), cfg.HorizonDays-0.01),
			Value: dataset.QuantizeHalfStar(v),
			Rater: fmt.Sprintf("atk%03d", i),
		}
	}
	if err := d.InjectUnfair(d.Products[rng.IntN(len(d.Products))].ID, atk); err != nil {
		t.Fatal(err)
	}
	return d
}

// requireBitEqualTables fails unless got and want agree bit for bit,
// NaN (empty period) included.
func requireBitEqualTables(t *testing.T, label string, got, want Table) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d products, want %d", label, len(got), len(want))
	}
	for id, w := range want {
		g := got[id]
		if len(g) != len(w) {
			t.Fatalf("%s: product %s has %d periods, want %d", label, id, len(g), len(w))
		}
		for k := range w {
			if math.Float64bits(g[k]) != math.Float64bits(w[k]) {
				t.Errorf("%s: product %s period %d: %v, want %v", label, id, k, g[k], w[k])
			}
		}
	}
}

// TestOnlineMatchesReferenceProperty: the engine-published table that
// OnlinePScheme returns is bit-identical to the standalone loop on seeded
// attacked datasets with partial final periods.
func TestOnlineMatchesReferenceProperty(t *testing.T) {
	p := NewOnlinePScheme()
	for seed := uint64(1); seed <= 12; seed++ {
		d := attackedData(t, seed)
		requireBitEqualTables(t, fmt.Sprintf("seed %d horizon %v", seed, d.HorizonDays),
			p.Aggregates(d), onlineReference(p, d))
	}
}

// TestResumePublishedMatchesReference: with versioned products, the
// Published table of an incrementally resumed engine stays bit-identical
// to the reference loop on the current data as ratings arrive late and
// early — memo on and off, serial and parallel.
func TestResumePublishedMatchesReference(t *testing.T) {
	p := NewOnlinePScheme()
	for _, tc := range []struct {
		name string
		eng  *engine.Engine
	}{
		{"memo-workers4", &engine.Engine{Detect: p.Detect, Workers: 4}},
		{"nomemo-workers1", &engine.Engine{Detect: p.Detect, Workers: 1, DisableMemo: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []uint64{5, 17} {
				rng := stats.NewRNG(seed + 100)
				full := attackedData(t, seed)
				// Start from roughly two thirds of each product's history;
				// the rest arrives in random order, so inserts land both at
				// the tail and before already-published epochs.
				live := &dataset.Dataset{HorizonDays: full.HorizonDays}
				type pending struct {
					product int
					r       dataset.Rating
				}
				var backlog []pending
				for i, prod := range full.Products {
					var keep dataset.Series
					for _, r := range prod.Ratings {
						if rng.Float64() < 0.67 {
							keep = append(keep, r)
						} else {
							backlog = append(backlog, pending{i, r})
						}
					}
					live.Products = append(live.Products, dataset.Product{ID: prod.ID, Ratings: keep, Version: 1})
				}
				rng.Shuffle(len(backlog), func(i, j int) { backlog[i], backlog[j] = backlog[j], backlog[i] })

				st := engine.NewState()
				for step := 0; ; step++ {
					res, err := tc.eng.Resume(context.Background(), st, live)
					if err != nil {
						t.Fatal(err)
					}
					if step%4 == 0 || len(backlog) == 0 {
						requireBitEqualTables(t, fmt.Sprintf("seed %d, %d pending", seed, len(backlog)),
							Table(res.Published), onlineReference(p, live))
					}
					if len(backlog) == 0 {
						break
					}
					k := min(1+rng.IntN(12), len(backlog))
					for _, ins := range backlog[:k] {
						prod := &live.Products[ins.product]
						prod.Ratings = prod.Ratings.Insert(ins.r)
						prod.Version++
						st.Invalidate(ins.r.Day)
					}
					backlog = backlog[k:]
				}
			}
		})
	}
}
