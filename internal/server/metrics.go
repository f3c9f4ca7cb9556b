package server

import (
	"net/http"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// httpRoutes is the bounded route vocabulary of the metrics plane. Every
// request is classified into one of these by routeLabel — label values are
// never derived from request strings, so the child set is fixed at
// registration time.
var httpRoutes = []string{
	"submit", "products", "scores", "report", "trust",
	"healthz", "readyz", "metrics", "other",
}

// statusClasses are the response status classes counted per route; index 4
// ("other") catches informational and never-committed statuses.
var statusClasses = []string{"2xx", "3xx", "4xx", "5xx", "other"}

// httpMetrics pre-registers every route × status-class child so the
// per-request path is two map lookups (no allocation) plus lock-free
// atomic recording.
type httpMetrics struct {
	latency map[string]*obs.Histogram
	classes map[string][5]*obs.Counter
}

func newHTTPMetrics(reg *obs.Registry) *httpMetrics {
	m := &httpMetrics{
		latency: make(map[string]*obs.Histogram, len(httpRoutes)),
		classes: make(map[string][5]*obs.Counter, len(httpRoutes)),
	}
	for _, route := range httpRoutes {
		m.latency[route] = reg.Histogram("http_request_seconds",
			"HTTP request latency in seconds, by route.", obs.LatencyBuckets, obs.L("route", route))
		var cs [5]*obs.Counter
		for i, class := range statusClasses {
			cs[i] = reg.Counter("http_requests_total",
				"HTTP requests served, by route and status class.",
				obs.L("route", route), obs.L("class", class))
		}
		m.classes[route] = cs
	}
	return m
}

// observe records one finished request. A nil receiver (metrics disabled)
// records nothing.
func (m *httpMetrics) observe(route string, status int, elapsed time.Duration) {
	if m == nil {
		return
	}
	m.latency[route].Observe(elapsed.Seconds())
	idx := status/100 - 2
	if idx < 0 || idx > 3 {
		idx = 4
	}
	m.classes[route][idx].Inc()
}

// routeLabel classifies a request into the bounded route vocabulary. It
// mirrors the Handler's mux patterns without depending on mux internals,
// so the middleware can label a request even when no pattern matched.
func routeLabel(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/ratings":
		return "submit"
	case p == "/products":
		return "products"
	case strings.HasPrefix(p, "/products/") && strings.HasSuffix(p, "/scores"):
		return "scores"
	case strings.HasPrefix(p, "/products/") && strings.HasSuffix(p, "/report"):
		return "report"
	case strings.HasPrefix(p, "/raters/") && strings.HasSuffix(p, "/trust"):
		return "trust"
	case p == "/healthz":
		return "healthz"
	case p == "/readyz":
		return "readyz"
	case p == "/metrics":
		return "metrics"
	}
	return "other"
}

// EnableMetrics registers the service's observability with reg and turns
// on the /metrics route of Handler: per-route request latency histograms
// and status-class counters in the middleware, aggregate recompute
// duration, the engine memo plane's counters, and the storage layer's
// per-shard submit/WAL/replay metrics. Call it before Handler (the route
// set is fixed when the mux is built); the recording paths themselves are
// lock-free and nil-safe, so a service without metrics pays only nil
// checks. A nil reg is a no-op.
func (s *Service) EnableMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.mu.Lock()
	s.obsReg = reg
	s.evalSeconds = reg.Histogram("engine_eval_seconds",
		"Aggregate recompute (scheme evaluation) duration in seconds.", obs.LatencyBuckets)
	s.mu.Unlock()
	s.httpM.Store(newHTTPMetrics(reg))
	// The engine memo plane keeps process-wide atomic counters; export them
	// at scrape time rather than double-counting on the hot path. They only
	// grow, so they are counters; the names predate the _total convention
	// and are kept because scrapers read them by name.
	reg.CounterFunc("engine_memo_hits", "Memo lookups served from cache.",
		func() float64 { return float64(engine.Stats().MemoHits) })
	reg.CounterFunc("engine_memo_misses", "Memo lookups that fell through to analysis.",
		func() float64 { return float64(engine.Stats().MemoMisses) })
	reg.CounterFunc("engine_memo_invalidated", "Memo entries dropped because a product's series changed.",
		func() float64 { return float64(engine.Stats().MemoInvalidated) })
	reg.CounterFunc("engine_products_analyzed_total", "Products analyzed by the detector pool.",
		func() float64 { return float64(engine.Stats().Analyzed) })
	reg.CounterFunc("engine_products_skipped_total", "Detector-pool analyses abandoned because the evaluation was cancelled.",
		func() float64 { return float64(engine.Stats().Skipped) })
	s.store.EnableMetrics(reg)
}

// metricsRegistry returns the registry handed to EnableMetrics, or nil.
func (s *Service) metricsRegistry() *obs.Registry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.obsReg
}
