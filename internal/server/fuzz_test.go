package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/obs"
)

// FuzzHandler drives arbitrary method, path, query and body through the
// full HTTP surface of an in-memory P-scheme service (metrics enabled) and
// checks the properties every untrusted request must keep:
//
//  1. The handler never panics and never answers 500.
//  2. 503 comes only from /readyz: an in-memory service has no storage to
//     lose, and the fuzz requests carry live contexts.
//  3. A 4xx changes no product's rating count.
func FuzzHandler(f *testing.F) {
	f.Add("POST", "/ratings", "", []byte(`{"product":"tv1","rater":"alice","value":4.5,"day":3}`))
	f.Add("POST", "/ratings", "", []byte(`{"product":"tv1","rater":"r000","value":4,"day":3}`))
	f.Add("POST", "/ratings", "", []byte(`{"product":"tv9","rater":"bob","value":4,"day":3}`))
	f.Add("POST", "/ratings", "", []byte(`{"product":"tv2","rater":"eve","value":9,"day":-1}`))
	f.Add("POST", "/ratings", "", []byte(`{"product":"tv2","rater":"","value":1e400}`))
	f.Add("POST", "/ratings", "x=1", []byte(`{"product":`))
	f.Add("GET", "/products", "", []byte(nil))
	f.Add("GET", "/products/tv1/scores", "", []byte(nil))
	f.Add("GET", "/products/tv2/report", "verbose=1", []byte(nil))
	f.Add("GET", "/products/%2e%2e/report", "", []byte(nil))
	f.Add("GET", "/raters/r001/trust", "", []byte(nil))
	f.Add("GET", "/healthz", "", []byte(nil))
	f.Add("GET", "/readyz", "", []byte(nil))
	f.Add("GET", "/metrics", "", []byte(nil))
	f.Add("DELETE", "/ratings", "", []byte(nil))
	f.Add("PATCH", "//products//scores", "a=%zz", []byte("{}"))

	f.Fuzz(func(t *testing.T, method, path, query string, body []byte) {
		p := agg.NewPScheme()
		p.Workers = 1
		svc, err := New(p, 90, []string{"tv1", "tv2"})
		if err != nil {
			t.Fatal(err)
		}
		svc.EnableMetrics(obs.NewRegistry())
		seedRatings(t, svc, 24)
		h := svc.Handler()

		target := "http://svc.test/" + strings.TrimPrefix(path, "/")
		if query != "" {
			target += "?" + query
		}
		req, err := http.NewRequest(method, target, bytes.NewReader(body))
		if err != nil {
			return // no client could send this request
		}
		counts := func() []int {
			out := make([]int, 0, 2)
			for _, id := range svc.Products() {
				n, err := svc.RatingCount(id)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, n)
			}
			return out
		}
		before := counts()
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)

		switch code := rw.Code; {
		case code == http.StatusInternalServerError:
			t.Fatalf("%s %s: 500: %s", method, target, rw.Body.String())
		case code == http.StatusServiceUnavailable && req.URL.Path != "/readyz":
			t.Fatalf("%s %s: 503 outside /readyz: %s", method, target, rw.Body.String())
		case code >= 400 && code < 500:
			if after := counts(); !slices.Equal(before, after) {
				t.Fatalf("%s %s: %d changed rating counts %v → %v", method, target, code, before, after)
			}
		}
	})
}
