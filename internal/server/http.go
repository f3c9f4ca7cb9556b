package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/obs"
)

// maxSubmitBody bounds POST /ratings bodies. A rating submission is a
// four-field JSON object; anything larger is abuse, not data.
const maxSubmitBody = 1 << 16

// Handler exposes the service over HTTP:
//
//	POST /ratings                  {"product","rater","value","day"}
//	GET  /products                 list product IDs
//	GET  /products/{id}/scores     per-period aggregates
//	GET  /products/{id}/report     defense report (ratings, marks, scores)
//	GET  /raters/{id}/trust        current beta trust
//	GET  /healthz                  liveness (always 200 while serving)
//	GET  /readyz                   readiness (200 ready/degraded with JSON detail, 503 + Retry-After on WAL failure)
//
// All responses are JSON. Errors map to 400 (bad input), 404 (unknown
// product), 409 (duplicate rating), 413 (oversized body) and 503 (storage
// unavailable). Every handler runs behind a middleware that recovers
// panics into a 500 and logs one line per request to the service logger.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ratings", s.handleSubmit)
	mux.HandleFunc("GET /products", s.handleProducts)
	mux.HandleFunc("GET /products/{id}/scores", s.handleScores)
	mux.HandleFunc("GET /products/{id}/report", s.handleReport)
	mux.HandleFunc("GET /raters/{id}/trust", s.handleTrust)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	if reg := s.metricsRegistry(); reg != nil {
		// GET /metrics — Prometheus text exposition of the registry handed
		// to EnableMetrics. Scrapes are lock-free with respect to request
		// recording, so the endpoint stays live under saturation.
		mux.Handle("GET /metrics", reg.Handler())
	}
	return s.middleware(mux)
}

// statusWriter captures the response status and size for the request log
// and the metrics plane. Because it wraps the connection's ResponseWriter
// in a new concrete type, it must re-expose the optional interfaces
// handlers probe for: an embedded interface field does not promote the
// underlying writer's Flush/ReadFrom, and without Unwrap an
// http.ResponseController cannot reach the real connection.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

// WriteHeader latches the first explicit status — the one that went on the
// wire — and drops duplicates. Forwarding a second call would only make
// net/http log a "superfluous WriteHeader" for a call this layer has
// already absorbed into its accounting.
func (w *statusWriter) WriteHeader(status int) {
	if w.status != 0 {
		return
	}
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// Write counts response bytes and latches the implicit 200 a handler
// commits by writing the body without calling WriteHeader first.
func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// Flush passes http.Flusher through to the connection so streaming
// handlers keep flushing behind the middleware. Flushing commits the
// response headers, which is an implicit 200 when none was set.
func (w *statusWriter) Flush() {
	f, ok := w.ResponseWriter.(http.Flusher)
	if !ok {
		return
	}
	if w.status == 0 {
		w.status = http.StatusOK
	}
	f.Flush()
}

// ReadFrom keeps the io.ReaderFrom fast path (sendfile for file-backed
// bodies) available through the wrapper while preserving the byte count
// and the implicit-200 latch. io.Copy uses the underlying writer's own
// ReadFrom when it has one.
func (w *statusWriter) ReadFrom(src io.Reader) (int64, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := io.Copy(w.ResponseWriter, src)
	w.bytes += int(n)
	return n, err
}

// Unwrap lets http.ResponseController reach the underlying connection for
// deadline and flush control.
func (w *statusWriter) Unwrap() http.ResponseWriter {
	return w.ResponseWriter
}

// middleware wraps a handler with panic recovery, request logging, and the
// metrics plane's per-route recording. A panicking handler yields a JSON
// 500 (when the response has not started) instead of tearing down the
// connection without a trace. Each request gets a process-unique ID that
// appears in every log line about it.
func (s *Service) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := obs.NextRequestID()
		route := routeLabel(r)
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			if p := recover(); p != nil {
				s.logf("http: panic serving %s %s req=%s: %v", r.Method, r.URL.Path, reqID, p)
				if sw.status == 0 {
					s.writeError(sw, http.StatusInternalServerError, errors.New("internal error"))
				}
			}
			elapsed := time.Since(start)
			s.httpM.Load().observe(route, sw.status, elapsed)
			s.logf("http: %s %s → %d (%dB, %v) req=%s",
				r.Method, r.URL.Path, sw.status, sw.bytes, elapsed.Round(time.Microsecond), reqID)
		}()
		next.ServeHTTP(sw, r)
	})
}

// SubmitRequest is the POST /ratings payload.
type SubmitRequest struct {
	Product string  `json:"product"`
	Rater   string  `json:"rater"`
	Value   float64 `json:"value"`
	Day     float64 `json:"day"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxSubmitBody)
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		s.writeError(w, status, fmt.Errorf("decode request: %w", err))
		return
	}
	ack, err := s.SubmitAck(r.Context(), req.Product, req.Rater, req.Value, req.Day)
	if err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	// The ack is explicit in every 201: "durable" means the rating survives
	// a crash from this instant; "pending" means the WAL's fsync breaker is
	// open and the rating rides the next group commit — never silently
	// dropped, but a client that requires hard durability can retry later.
	s.writeJSON(w, http.StatusCreated, map[string]string{
		"status":     "accepted",
		"durability": ack.String(),
	})
}

func (s *Service) handleProducts(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Products())
}

func (s *Service) handleScores(w http.ResponseWriter, r *http.Request) {
	scores, err := s.Scores(r.Context(), r.PathValue("id"))
	if err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	s.writeJSON(w, http.StatusOK, sanitizeNaN(scores))
}

func (s *Service) handleReport(w http.ResponseWriter, r *http.Request) {
	rep, err := s.Inspect(r.Context(), r.PathValue("id"))
	if err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	rep.Scores = sanitizeNaN(rep.Scores)
	s.writeJSON(w, http.StatusOK, rep)
}

func (s *Service) handleTrust(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]float64{"trust": s.Trust(r.Context(), r.PathValue("id"))})
}

// handleHealthz is the liveness probe: the process is up and serving.
func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe. The JSON body is server.Health;
// the status code separates "pull from rotation" from "keep serving":
//
//	ready     → 200 {"status":"ready",...}
//	degraded  → 200 {"status":"degraded","reasons":[...]} — stale
//	            aggregates or pending-durability acks; the instance keeps
//	            serving, operators get the warning.
//	not-ready → 503 + Retry-After — the WAL is failed, durable writes are
//	            rejected; load balancers drain the instance.
func (s *Service) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	h := s.Health()
	if h.Status == StatusNotReady {
		w.Header().Set("Retry-After", retryAfterSeconds)
		s.writeJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	s.writeJSON(w, http.StatusOK, h)
}

// sanitizeNaN replaces NaN (periods without ratings) with -1, which JSON
// can carry, in place, and returns scores. Callers pass the copy Scores or
// Inspect made for them.
func sanitizeNaN(scores []float64) []float64 {
	for i, v := range scores {
		if v != v { // NaN
			scores[i] = -1
		}
	}
	return scores
}

// retryAfterSeconds is the Retry-After hint attached to every shed or
// unavailable response: long enough for a breaker probe or a recompute to
// finish, short enough that clients re-offer load promptly.
const retryAfterSeconds = "1"

func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrUnknownProduct):
		return http.StatusNotFound
	case errors.Is(err, ErrDuplicateRating):
		return http.StatusConflict
	case errors.Is(err, ErrUnavailable):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client's deadline expired (or it went away) while the request
		// was queued or mid-evaluation; the work was shed, nothing was
		// committed. 503 + Retry-After tells a proxy to re-offer the
		// request when there is budget again.
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// writeJSON sets Content-Type before committing headers (a header set
// after WriteHeader is silently dropped) and logs encoding failures —
// they indicate a programming error or a dead client, neither of which
// should vanish silently.
func (s *Service) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.logf("http: encode response: %v", err)
	}
}

func (s *Service) writeError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	s.writeJSON(w, status, errorResponse{Error: err.Error()})
}
