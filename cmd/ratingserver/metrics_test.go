package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestMetricsEndpointCoverage builds the full production configuration —
// WAL-backed store, admission limiter, per-client rate limiting, metrics
// registry — drives one request through each layer, and asserts a single
// /metrics scrape reflects every instrumented subsystem: HTTP, admission,
// WAL, store, and engine. It also pins that /metrics is exempt from
// admission control: a rate-limited client can still be scraped.
func TestMetricsEndpointCoverage(t *testing.T) {
	cfg := memConfig("SA", "tv1,tv2", 60, false, 1)
	cfg.walDir = filepath.Join(t.TempDir(), "wal")
	cfg.syncEvery = 1 // every submit fsyncs, so the WAL histograms populate
	cfg.maxInflight = 4
	cfg.queueDepth = 4
	cfg.rateLimit = 1 // burst 4: the flood below exhausts it in four requests
	cfg.obsReg = obs.NewRegistry()

	svc, _, err := buildService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	h := buildHandler(svc, cfg)

	do := func(method, path, body string) *httptest.ResponseRecorder {
		t.Helper()
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req := httptest.NewRequest(method, path, rd)
		req.RemoteAddr = "10.9.9.9:1234"
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		return rw
	}

	// One request through each layer: a durable submit (WAL fsync + store
	// shard counter), a scores read (engine evaluation), a products list.
	if rw := do("POST", "/ratings", `{"product":"tv1","rater":"m1","value":4,"day":1}`); rw.Code != http.StatusCreated {
		t.Fatalf("submit = %d: %s", rw.Code, rw.Body.String())
	}
	if rw := do("GET", "/products/tv1/scores", ""); rw.Code != http.StatusOK {
		t.Fatalf("scores = %d", rw.Code)
	}
	// Exhaust the remaining rate-limit burst: the loop ends on the first
	// (and, for the scrape assertions below, only) 429.
	floodCode := 0
	for i := 0; i < 100 && floodCode != http.StatusTooManyRequests; i++ {
		floodCode = do("GET", "/products", "").Code
	}
	if floodCode != http.StatusTooManyRequests {
		t.Fatalf("flooded client = %d, want 429", floodCode)
	}
	rw := do("GET", "/metrics", "")
	if rw.Code != http.StatusOK {
		t.Fatalf("/metrics for flooded client = %d, want 200 (exempt from admission)", rw.Code)
	}

	scrape := rw.Body.String()
	for _, want := range []string{
		// HTTP plane: the submit recorded itself before this scrape.
		`http_requests_total{route="submit",class="2xx"} 1`,
		`http_request_seconds_bucket{route="submit",le="`,
		// Admission plane: the shed above counted one rate-limited rejection.
		`admission_shed_total{reason="rate_limited"} 1`,
		`admission_queue_wait_seconds_count`,
		`admission_admitted_total`,
		`ratelimit_denied_total 1`,
		// WAL plane: syncEvery=1 means the submit fsynced at least once.
		`wal_fsync_seconds_count{shard="`,
		`wal_batch_size_bucket{shard="`,
		`wal_breaker_open{shard="`,
		// Store plane: per-shard submit counters and replay timings.
		`store_submit_total{shard="`,
		`store_replay_seconds{shard="`,
		// Engine plane: the scores read forced an evaluation.
		`engine_eval_seconds_count`,
		`engine_products_analyzed_total`,
		`engine_memo_hits`,
		`# TYPE engine_memo_hits counter`,
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("scrape:\n%s", scrape)
	}

	// The durable submit landed on exactly one shard: across the per-shard
	// submit counters, the values must sum to 1.
	total := 0
	for _, line := range strings.Split(scrape, "\n") {
		if !strings.HasPrefix(line, `store_submit_total{shard="`) {
			continue
		}
		if strings.HasSuffix(line, "} 1") {
			total++
		} else if !strings.HasSuffix(line, "} 0") {
			t.Errorf("unexpected shard counter value: %q", line)
		}
	}
	if total != 1 {
		t.Errorf("%d shards recorded the single submit, want 1", total)
	}
}
