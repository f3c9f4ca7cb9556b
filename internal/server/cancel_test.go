package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/faultfs"
)

// stepCtx cancels itself after a fixed number of Err checks — the same
// deterministic mid-evaluation cancellation device as the engine's
// countingCtx, here driven through the Service API. The budget is atomic
// because the engine's pool workers poll Err concurrently.
type stepCtx struct{ budget atomic.Int64 }

func newStepCtx(budget int) *stepCtx {
	c := &stepCtx{}
	c.budget.Store(int64(budget))
	return c
}

func (c *stepCtx) Err() error {
	if c.budget.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}
func (c *stepCtx) Done() <-chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}
func (c *stepCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *stepCtx) Value(any) any               { return nil }

func seedRatings(t *testing.T, s *Service, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		day := math.Mod(float64(i)*0.7, 90)
		if err := s.Submit(context.Background(), "tv1", fmt.Sprintf("r%03d", i), 4, day); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScoresCancelledMidRecompute: a reader whose ctx dies mid-recompute
// gets the error back, the service leaves the store generation unrecorded,
// and the next reader with a live ctx resumes the interrupted evaluation
// to the same table an uninterrupted service computes.
func TestScoresCancelledMidRecompute(t *testing.T) {
	mk := func() *Service {
		p := agg.NewPScheme()
		p.Workers = 1
		s, err := New(p, 90, []string{"tv1"})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	svc, ref := mk(), mk()
	seedRatings(t, svc, 150)
	seedRatings(t, ref, 150)

	cancelled := false
	for _, budget := range []int{2, 5, 9} {
		if _, err := svc.Scores(newStepCtx(budget), "tv1"); err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("budget %d: err = %v", budget, err)
			}
			cancelled = true
		}
	}
	if !cancelled {
		t.Fatal("no budget cancelled the recompute; deepen the seed data")
	}
	got, err := svc.Scores(context.Background(), "tv1")
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Scores(context.Background(), "tv1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("score lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("period %d: %v vs %v after cancelled recompute", i, got[i], want[i])
		}
	}
}

// TestHTTPCancelledRequestShedsEngineWork pins deadline propagation end to
// end: a request arriving with an already-dead context is shed with 503 +
// Retry-After and — per the engine's worker-pool counters — burns zero
// detector analyses, while the same request with a live context does the
// work.
func TestHTTPCancelledRequestShedsEngineWork(t *testing.T) {
	p := agg.NewPScheme()
	p.Workers = 1
	svc, err := New(p, 90, []string{"tv1"})
	if err != nil {
		t.Fatal(err)
	}
	seedRatings(t, svc, 60)
	h := svc.Handler()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := svc.engState.Stats()
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/products/tv1/scores", nil).WithContext(ctx))
	after := svc.engState.Stats()
	if rw.Code != http.StatusServiceUnavailable {
		t.Errorf("cancelled request status = %d, want 503", rw.Code)
	}
	if rw.Header().Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	if after.Analyzed != before.Analyzed {
		t.Errorf("cancelled request burned %d product analyses", after.Analyzed-before.Analyzed)
	}

	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/products/tv1/scores", nil))
	if rw.Code != http.StatusOK {
		t.Fatalf("live request status = %d", rw.Code)
	}
	if live := svc.engState.Stats(); live.Analyzed == after.Analyzed {
		t.Error("live request did no engine work; instrumentation broken?")
	}
}

// TestHTTPReadyzDegradedOnBreakerOpen: a stalled-but-working disk trips the
// WAL breaker; /readyz must stay 200 but report degraded + pending
// durability, and Submit acks must carry "durability":"pending" — the
// explicit no-silent-loss contract.
func TestHTTPReadyzDegradedOnBreakerOpen(t *testing.T) {
	fs := faultfs.New()
	svc, _, err := OpenWAL(agg.SAScheme{}, 90, []string{"tv1"}, WALOptions{
		FS:             fs,
		StallThreshold: time.Millisecond,
		ProbeInterval:  time.Hour, // keep the breaker open for the whole test
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	fs.StallSyncs(5 * time.Millisecond)
	// First submit eats the slow fsync and trips the breaker (still 201
	// durable: its own fsync completed).
	resp := postRating(t, ts, SubmitRequest{Product: "tv1", Rater: "slow", Value: 4, Day: 1})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("tripping submit status = %d", resp.StatusCode)
	}
	// Second submit lands while the breaker is open: acked pending.
	resp = postRating(t, ts, SubmitRequest{Product: "tv1", Rater: "pend", Value: 4, Day: 2})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("pending submit status = %d", resp.StatusCode)
	}
	var ackBody map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&ackBody); err != nil {
		t.Fatal(err)
	}
	if ackBody["durability"] != "pending" {
		t.Errorf(`submit ack durability = %q, want "pending"`, ackBody["durability"])
	}

	r, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("/readyz with open breaker = %d, want 200 (degraded but serving)", r.StatusCode)
	}
	var h Health
	if err := json.NewDecoder(r.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != StatusDegraded || h.Durability != "pending" || len(h.Reasons) == 0 {
		t.Errorf("health = %+v, want degraded/pending with reasons", h)
	}
}

// TestHTTPReadyzBodyStates pins the JSON bodies of the three readiness
// states end to end: ready (200), not-ready on WAL poison (503 +
// Retry-After).
func TestHTTPReadyzBodyStates(t *testing.T) {
	fs := faultfs.New()
	svc, _, err := OpenWAL(agg.SAScheme{}, 90, []string{"tv1"}, WALOptions{FS: fs, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var h Health
	r, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(r.Body).Decode(&h)
	r.Body.Close()
	if r.StatusCode != http.StatusOK || h.Status != StatusReady || h.Durability != "durable" {
		t.Errorf("healthy readyz = %d %+v", r.StatusCode, h)
	}

	fs.FailSyncsAfter(0)
	postRating(t, ts, SubmitRequest{Product: "tv1", Rater: "x", Value: 4, Day: 1})
	r, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	h = Health{}
	json.NewDecoder(r.Body).Decode(&h)
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable || h.Status != StatusNotReady {
		t.Errorf("poisoned readyz = %d %+v, want 503 not-ready", r.StatusCode, h)
	}
	if r.Header.Get("Retry-After") == "" {
		t.Error("not-ready response missing Retry-After")
	}
}
