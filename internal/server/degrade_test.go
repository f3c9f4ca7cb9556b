package server

import (
	"context"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/agg"
	"repro/internal/dataset"
)

// flakyScheme aggregates like SA until fail is set, then panics — the
// stand-in for a defense-scheme bug hit by live data.
type flakyScheme struct{ fail *atomic.Bool }

func (f flakyScheme) Name() string { return "flaky" }

func (f flakyScheme) Aggregates(d *dataset.Dataset) agg.Table {
	if f.fail.Load() {
		panic("injected aggregation failure")
	}
	return agg.SAScheme{}.Aggregates(d)
}

// TestDegradedRecomputeServesStale: a panicking scheme must not take the
// service down — reads serve the last good table marked stale, readiness
// fails, and the next recompute after the bug clears heals everything.
func TestDegradedRecomputeServesStale(t *testing.T) {
	var fail atomic.Bool
	s := newService(t, flakyScheme{fail: &fail})
	if err := s.Submit(context.Background(), "tv1", "r1", 4, 1); err != nil {
		t.Fatal(err)
	}
	good, err := s.Scores(context.Background(), "tv1")
	if err != nil || good[0] != 4 {
		t.Fatalf("healthy scores = %v, %v", good, err)
	}
	if err := s.Ready(); err != nil {
		t.Fatalf("healthy Ready = %v", err)
	}

	// Break the scheme, then dirty the cache.
	fail.Store(true)
	if err := s.Submit(context.Background(), "tv1", "r2", 2, 1); err != nil {
		t.Fatal(err)
	}
	stale, err := s.Scores(context.Background(), "tv1")
	if err != nil {
		t.Fatalf("degraded read failed outright: %v", err)
	}
	if stale[0] != 4 {
		t.Errorf("degraded scores = %v, want the last good table (period 0 = 4)", stale)
	}
	rep, err := s.Inspect(context.Background(), "tv1")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Stale {
		t.Error("degraded report not marked stale")
	}
	if rep.Ratings != 2 {
		t.Errorf("degraded report ratings = %d; raw counts must stay live", rep.Ratings)
	}
	if err := s.Ready(); err == nil {
		t.Error("Ready() = nil while serving stale aggregates")
	}
	// A repeated read must serve the cached stale table without invoking
	// the broken scheme again (no panic storm): the failed attempt recorded
	// the generation it tried.
	if _, err := s.Scores(context.Background(), "tv1"); err != nil {
		t.Fatal(err)
	}

	// Heal the scheme; the next data change triggers a clean recompute.
	fail.Store(false)
	if err := s.Submit(context.Background(), "tv1", "r3", 3, 1); err != nil {
		t.Fatal(err)
	}
	healed, err := s.Scores(context.Background(), "tv1")
	if err != nil {
		t.Fatal(err)
	}
	if want := (4.0 + 2.0 + 3.0) / 3.0; healed[0] != want {
		t.Errorf("healed scores[0] = %v, want %v", healed[0], want)
	}
	rep, _ = s.Inspect(context.Background(), "tv1")
	if rep.Stale {
		t.Error("report still stale after successful recompute")
	}
	if err := s.Ready(); err != nil {
		t.Errorf("Ready after heal = %v", err)
	}
}

// TestSubmitRejectsNonFinite is the NaN/Inf-bypass regression test: NaN
// compares false against every bound, so without explicit finiteness
// checks a NaN value or day is accepted and poisons every aggregate.
func TestSubmitRejectsNonFinite(t *testing.T) {
	s := newService(t, agg.SAScheme{})
	cases := []struct {
		name       string
		value, day float64
	}{
		{"NaN value", math.NaN(), 1},
		{"+Inf value", math.Inf(1), 1},
		{"-Inf value", math.Inf(-1), 1},
		{"NaN day", 4, math.NaN()},
		{"+Inf day", 4, math.Inf(1)},
		{"-Inf day", 4, math.Inf(-1)},
	}
	for _, tc := range cases {
		if err := s.Submit(context.Background(), "tv1", "r-"+tc.name, tc.value, tc.day); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	if n, _ := s.RatingCount("tv1"); n != 0 {
		t.Fatalf("non-finite submissions mutated state: %d ratings", n)
	}
	// The aggregate path stays NaN-free for rated periods.
	if err := s.Submit(context.Background(), "tv1", "honest", 4, 1); err != nil {
		t.Fatal(err)
	}
	scores, err := s.Scores(context.Background(), "tv1")
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(scores[0]) {
		t.Error("rated period aggregates to NaN")
	}
}
