package server

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/agg"
	"repro/internal/dataset"
	"repro/internal/faultfs"
	"repro/internal/stats"
)

// TestConcurrentStress interleaves Submit, Scores, Inspect, Trust,
// RatingCount, Products and Load across many goroutines on a durable
// service. Run under -race it is the data-race gate for the whole
// submit/recompute/snapshot/read machinery; the closing invariant check
// catches logical corruption (duplicate raters, out-of-range values).
func TestConcurrentStress(t *testing.T) {
	fs := faultfs.New()
	svc, _, err := OpenWAL(agg.SAScheme{}, 90, []string{"tv1", "tv2"}, WALOptions{
		FS: fs, SyncEvery: 8, SnapshotEvery: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	cfg := dataset.DefaultFairConfig()
	cfg.Products = 2
	cfg.HorizonDays = 90
	seedData, err := dataset.GenerateFair(stats.NewRNG(3), cfg)
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers          = 8
		ratingsPerWriter = 40
		readers          = 4
	)
	var writeWG, readWG sync.WaitGroup
	errs := make(chan error, writers+readers+1)
	stop := make(chan struct{}) // closed once all writers (and Load) finish

	for g := 0; g < writers; g++ {
		writeWG.Add(1)
		go func(g int) {
			defer writeWG.Done()
			product := []string{"tv1", "tv2"}[g%2]
			for i := 0; i < ratingsPerWriter; i++ {
				rater := fmt.Sprintf("w%dr%d", g, i)
				if err := svc.Submit(context.Background(), product, rater, float64(i%6), float64(i%90)); err != nil {
					errs <- fmt.Errorf("writer %d: %w", g, err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < readers; g++ {
		readWG.Add(1)
		go func(g int) {
			defer readWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := svc.Scores(context.Background(), "tv1"); err != nil {
					errs <- fmt.Errorf("reader %d scores: %w", g, err)
					return
				}
				if _, err := svc.Inspect(context.Background(), "tv2"); err != nil {
					errs <- fmt.Errorf("reader %d inspect: %w", g, err)
					return
				}
				svc.Trust(context.Background(), fmt.Sprintf("w0r%d", g))
				if _, err := svc.RatingCount("tv1"); err != nil {
					errs <- err
					return
				}
				if got := len(svc.Products()); got != 2 {
					errs <- fmt.Errorf("reader %d products = %d", g, got)
					return
				}
			}
		}(g)
	}
	// One goroutine races Load against the writers: a full dataset swap
	// mid-traffic must neither trip the race detector nor corrupt the
	// duplicate-rater index.
	writeWG.Add(1)
	go func() {
		defer writeWG.Done()
		if err := svc.Load(context.Background(), seedData); err != nil {
			errs <- fmt.Errorf("load: %w", err)
		}
	}()

	writeWG.Wait()
	close(stop)
	readWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Invariants: every product series is duplicate-free and every
	// value/day in range, regardless of interleaving.
	for _, p := range svc.dataView().Products {
		seen := make(map[string]bool, len(p.Ratings))
		for _, r := range p.Ratings {
			if seen[r.Rater] {
				t.Errorf("%s: rater %q appears twice", p.ID, r.Rater)
			}
			seen[r.Rater] = true
			if r.Value < dataset.MinValue || r.Value > dataset.MaxValue {
				t.Errorf("%s: value %v out of range", p.ID, r.Value)
			}
			if r.Day < 0 || r.Day >= 90 {
				t.Errorf("%s: day %v out of range", p.ID, r.Day)
			}
		}
	}
}
