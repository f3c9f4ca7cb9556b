package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/stats"
)

// TestInspectMemoCounting pins the end-to-end memo contract behind the
// engine_* metrics: on a warmed service whose products share no raters,
// submitting one rating makes exactly one product miss the memo — once in
// the dirty epoch and once in the final pass — while every other product
// replays from cache, and drops exactly that product's entries (its three
// epochs and its final pass). The engine takes an unchanged series header
// for an unchanged series, so this also pins that the store hands out the
// same header for an untouched product at every View: a store that
// recopied series would stay bit-exact but drop every product's memo.
func TestInspectMemoCounting(t *testing.T) {
	for _, shards := range []int{1, 3} {
		p := agg.NewPScheme()
		p.Workers = 1
		products := []string{"tv1", "tv2", "tv3", "tv4"}
		svc, err := NewSharded(p, 90, products, shards)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		// Disjoint raters per product, ratings in all three epochs.
		for _, id := range products {
			for i := 0; i < 24; i++ {
				day := float64(i) * 89 / 24
				if err := svc.Submit(ctx, id, fmt.Sprintf("%s-r%d", id, i), 4, day); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := svc.Scores(ctx, "tv1"); err != nil { // warm the memo
			t.Fatal(err)
		}

		before := svc.engState.Stats()
		if err := svc.Submit(ctx, "tv2", "tv2-late", 1, 75); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Scores(ctx, "tv1"); err != nil {
			t.Fatal(err)
		}
		after := svc.engState.Stats()

		if got := after.MemoMisses - before.MemoMisses; got != 2 {
			t.Errorf("%d shards: misses = %d, want 2 (touched product in dirty epoch + final pass)", shards, got)
		}
		if got := after.MemoHits - before.MemoHits; got != 6 {
			t.Errorf("%d shards: hits = %d, want 6 (3 untouched products × {dirty epoch, final pass})", shards, got)
		}
		if got := after.MemoInvalidated - before.MemoInvalidated; got != 4 {
			t.Errorf("%d shards: invalidations = %d, want 4 (touched product's 3 epoch entries + final)", shards, got)
		}
		if got := after.Analyzed - before.Analyzed; got != 2 {
			t.Errorf("%d shards: analyses = %d, want 2 — one submit must cost O(changed product)", shards, got)
		}
	}
}

// engineCounters are the engine work series EnableMetrics exports.
var engineCounters = []string{
	"engine_memo_hits", "engine_memo_misses", "engine_memo_invalidated",
	"engine_signal_hits", "engine_signal_misses",
	"engine_products_analyzed_total", "engine_products_skipped_total",
	"engine_image_restored_products_total",
}

// scrapeEngine reads the engine_* counters from the handler's /metrics.
func scrapeEngine(t *testing.T, h http.Handler) map[string]float64 {
	t.Helper()
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/metrics", nil))
	if rw.Code != http.StatusOK {
		t.Fatalf("scrape status = %d", rw.Code)
	}
	got := make(map[string]float64)
	for _, line := range strings.Split(rw.Body.String(), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || !slices.Contains(engineCounters, f[0]) {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			t.Fatalf("unparseable counter %q: %v", line, err)
		}
		got[f[0]] = v
	}
	if len(got) != len(engineCounters) {
		t.Fatalf("scrape has %d engine counters, want %d: %v", len(got), len(engineCounters), got)
	}
	return got
}

// pService builds an in-memory single-worker P-scheme service with
// metrics enabled, returning the scheme so tests can reconfigure it.
func pService(t *testing.T, horizon float64, products []string) (*Service, *agg.PScheme, http.Handler) {
	t.Helper()
	p := agg.NewPScheme()
	p.Workers = 1
	svc, err := New(p, horizon, products)
	if err != nil {
		t.Fatal(err)
	}
	svc.EnableMetrics(obs.NewRegistry())
	return svc, p, svc.Handler()
}

// TestServicesDoNotBlurEngineCounters: two services in one process count
// their engine work separately — evaluations on one leave every engine_*
// series of the other at 0. Both are scraped while A evaluates, so under
// -race this also pins that a scrape may read a state mid-Resume.
func TestServicesDoNotBlurEngineCounters(t *testing.T) {
	products := []string{"tv1", "tv2"}
	a, _, ha := pService(t, 90, products)
	_, _, hb := pService(t, 90, products)
	done := make(chan error, 1)
	go func() {
		ctx := context.Background()
		for i := 0; i < 60; i++ {
			if err := a.Submit(ctx, products[i%2], fmt.Sprintf("r%03d", i), 4, float64(i)); err != nil {
				done <- err
				return
			}
			if i%10 == 9 {
				if _, err := a.Scores(ctx, "tv1"); err != nil {
					done <- err
					return
				}
			}
		}
		done <- nil
	}()
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
			scrapeEngine(t, ha)
		}
		for name, v := range scrapeEngine(t, hb) {
			if v != 0 {
				t.Fatalf("service B %s = %v after work on A only, want 0", name, v)
			}
		}
	}
	if got := scrapeEngine(t, ha)["engine_products_analyzed_total"]; got == 0 {
		t.Fatal("service A counted no analyses")
	}
}

// TestEngineCountersSurviveReset: Load and a failed recompute reset the
// engine state, but engine_products_analyzed_total never decreases, and
// the recompute after each reset is cold (no memo hit) and bit-exact with
// a memo-off evaluation of the same data.
func TestEngineCountersSurviveReset(t *testing.T) {
	const horizon = 90.0
	cfg := dataset.DefaultFairConfig()
	cfg.Products = 3
	cfg.HorizonDays = horizon
	d, err := dataset.GenerateFair(stats.NewRNG(5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, p, h := pService(t, horizon, d.ProductIDs())
	ctx := context.Background()
	last := 0.0
	// recompute forces an evaluation and checks the counters did not go
	// backwards; with cold set it also checks no memo entry was replayed
	// and that the scores match a memo-off evaluation.
	recompute := func(label string, cold bool) {
		t.Helper()
		before := scrapeEngine(t, h)
		if _, err := svc.Scores(ctx, "tv1"); err != nil {
			t.Fatal(err)
		}
		after := scrapeEngine(t, h)
		for _, name := range engineCounters {
			if after[name] < before[name] {
				t.Errorf("%s: %s went from %v to %v", label, name, before[name], after[name])
			}
		}
		if n := after["engine_products_analyzed_total"]; n < last {
			t.Errorf("%s: analyzed total dropped from %v to %v", label, last, n)
		} else {
			last = n
		}
		if !cold {
			return
		}
		if hits := after["engine_memo_hits"] - before["engine_memo_hits"]; hits != 0 {
			t.Errorf("%s: %v memo hits, want a cold evaluation", label, hits)
		}
		view := svc.dataView()
		want := agg.NewPScheme().Evaluate(view)
		for _, id := range view.ProductIDs() {
			got, err := svc.Scores(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			for k := range got {
				if math.Float64bits(got[k]) != math.Float64bits(want.Table[id][k]) {
					t.Errorf("%s: %s period %d = %v, memo-off %v", label, id, k, got[k], want.Table[id][k])
				}
			}
		}
	}

	seedRatings(t, svc, 80)
	recompute("first", true)
	if err := svc.Submit(ctx, "tv2", "late", 1, 70); err != nil {
		t.Fatal(err)
	}
	recompute("warm", false)

	if err := svc.Load(ctx, d); err != nil {
		t.Fatal(err)
	}
	if n := svc.engState.CompletedEpochs(); n != 0 {
		t.Errorf("Load kept %d checkpointed epochs of the old history", n)
	}
	recompute("after Load", true)

	// A negative MC window makes the detector panic: the recompute fails,
	// the service serves the stale table and resets the engine state.
	p.Detect.MCWindowDays = -5
	if err := svc.Submit(ctx, "tv3", "during-failure", 2, 40); err != nil {
		t.Fatal(err)
	}
	recompute("failed", false)
	if n := svc.engState.CompletedEpochs(); n != 0 {
		t.Errorf("failed recompute kept %d checkpointed epochs", n)
	}
	if rep, err := svc.Inspect(ctx, "tv1"); err != nil || !rep.Stale {
		t.Fatalf("recompute with a panicking detector: stale = %v, err = %v", rep.Stale, err)
	}
	p.Detect = detect.DefaultConfig()
	if err := svc.Submit(ctx, "tv3", "after-failure", 2, 45); err != nil {
		t.Fatal(err)
	}
	recompute("after failure", true)
	if rep, err := svc.Inspect(ctx, "tv1"); err != nil || rep.Stale {
		t.Fatalf("recompute after the fix: stale = %v, err = %v", rep.Stale, err)
	}
}
