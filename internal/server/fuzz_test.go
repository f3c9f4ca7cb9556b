package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/faultfs"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// FuzzHandler drives arbitrary method, path, query and body through the
// full HTTP surface of two P-scheme services, metrics enabled: an
// in-memory one, and a durable one on an in-memory WAL (faultfs, no
// faults armed) behind admission control. Each must keep the properties
// every untrusted request must keep:
//
//  1. The handler never panics and never answers 500.
//  2. 503 comes only from /readyz: neither service's storage fails, a
//     single request never saturates admission, and the fuzz requests
//     carry live contexts.
//  3. A 4xx changes no product's rating count.
//  4. A 4xx appends no WAL bytes.
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

	products := []string{"tv1", "tv2"}
	scheme := func() agg.Scheme {
		p := agg.NewPScheme()
		p.Workers = 1
		return p
	}
	f.Fuzz(func(t *testing.T, method, path, query string, body []byte) {
		target := "http://svc.test/" + strings.TrimPrefix(path, "/")
		if query != "" {
			target += "?" + query
		}
		if _, err := http.NewRequest(method, target, nil); err != nil {
			return // no client could send this request
		}

		mem, err := New(scheme(), 90, products)
		if err != nil {
			t.Fatal(err)
		}
		fs := faultfs.New()
		durable, _, err := OpenWAL(scheme(), 90, products, WALOptions{FS: fs, SyncEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer durable.Close()
		walBytes := func() int64 {
			n, err := fs.Size(logPath)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
		for _, svc := range []*Service{mem, durable} {
			svc.EnableMetrics(obs.NewRegistry())
			seedRatings(t, svc, 24)
		}
		admitted := resilience.Admission(durable.Handler(), resilience.AdmissionOptions{
			Limiter:     resilience.NewLimiter(4, 4),
			Rate:        resilience.NewRateLimiter(10, 40),
			ExemptPaths: map[string]bool{"/healthz": true, "/readyz": true, "/metrics": true},
		})
		for _, c := range []struct {
			name     string
			svc      *Service
			h        http.Handler
			walBytes func() int64
		}{
			{"in-memory", mem, mem.Handler(), func() int64 { return 0 }},
			{"durable", durable, admitted, walBytes},
		} {
			req, err := http.NewRequest(method, target, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			counts := func() []int {
				out := make([]int, 0, len(products))
				for _, id := range c.svc.Products() {
					n, err := c.svc.RatingCount(id)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, n)
				}
				return out
			}
			before, logged := counts(), c.walBytes()
			rw := httptest.NewRecorder()
			c.h.ServeHTTP(rw, req)

			switch code := rw.Code; {
			case code == http.StatusInternalServerError:
				t.Fatalf("%s: %s %s: 500: %s", c.name, method, target, rw.Body.String())
			case code == http.StatusServiceUnavailable && req.URL.Path != "/readyz":
				t.Fatalf("%s: %s %s: 503 outside /readyz: %s", c.name, method, target, rw.Body.String())
			case code >= 400 && code < 500:
				if after := counts(); !slices.Equal(before, after) {
					t.Fatalf("%s: %s %s: %d changed rating counts %v → %v", c.name, method, target, code, before, after)
				}
				if after := c.walBytes(); after != logged {
					t.Fatalf("%s: %s %s: %d appended %d WAL bytes", c.name, method, target, code, after-logged)
				}
			}
		}
	})
}
