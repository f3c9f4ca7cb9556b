package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agg"
	"repro/internal/faultfs"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/wal"
)

// stack is one instance of the production serving stack, wired as
// cmd/ratingserver wires it: a P-scheme service on a sharded WAL
// (Shards = GOMAXPROCS, fsync every append, snapshot every 4096 ratings,
// 250 ms fsync breaker) with metrics on its own obs.Registry, behind
// resilience.Admission with a 256-inflight / 512-queue limiter.
//
// The WAL lives in memory (internal/faultfs with no faults armed): fsync
// on a shared virtual disk swings ingest throughput by more than 2x from
// run to run, and the benchmark keeps every write inside its checkout, so
// a RAM-backed medium stands in for tmpfs.
type stack struct {
	svc     *server.Service
	reg     *obs.Registry
	handler http.Handler
}

const (
	maxInflight = 256
	queueDepth  = 512
)

// openStack opens (or reopens) the durable service over mem. With a
// tracer, the WAL goes through the tracer's timing FS and the handler
// chain gets the tracer's outer and inner timing wrappers.
// It returns the stack, how long OpenWAL took and what it recovered.
func openStack(mem *faultfs.FS, in *inputs, tr *tracer) (*stack, time.Duration, *server.RecoveryReport, error) {
	var fsys wal.FS = mem
	if tr != nil {
		fsys = tr.fs(mem)
	}
	start := time.Now()
	svc, rep, err := server.OpenWAL(agg.NewPScheme(), in.horizon, in.products, server.WALOptions{
		FS:             fsys,
		Shards:         runtime.GOMAXPROCS(0),
		SyncEvery:      1,
		SnapshotEvery:  4096,
		StallThreshold: 250 * time.Millisecond,
	})
	open := time.Since(start)
	if err != nil {
		return nil, 0, nil, err
	}
	reg := obs.NewRegistry()
	// Request lines are formatted as in production and then discarded:
	// the formatting is part of the serving cost, the terminal is not.
	svc.SetLogger(obs.NewLogger(io.Discard, obs.LevelInfo).Std(obs.LevelInfo))
	svc.EnableMetrics(reg)
	lim := resilience.NewLimiter(maxInflight, queueDepth)
	var inner http.Handler = svc.Handler()
	if tr != nil {
		inner = tr.wrap(inner, &tr.inner)
	}
	h := resilience.Admission(inner, resilience.AdmissionOptions{
		Limiter:     lim,
		ExemptPaths: map[string]bool{"/healthz": true, "/readyz": true, "/metrics": true},
		Metrics:     resilience.NewAdmissionMetrics(reg, lim, nil),
	})
	if tr != nil {
		h = tr.wrap(h, &tr.outer)
	}
	return &stack{svc: svc, reg: reg, handler: h}, open, rep, nil
}

// scrape reads the stack's registry as series name (with labels) → value.
func (s *stack) scrape() (metrics, error) {
	var buf bytes.Buffer
	if err := s.reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return parseMetrics(buf.Bytes()), nil
}

// loopback serves whichever stack is current on a loopback listener, so
// the client's two kept-alive connections survive service restarts.
type loopback struct {
	cur    atomic.Pointer[http.Handler]
	srv    *http.Server
	base   string
	client *http.Client
	done   chan error
}

func startLoopback() (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	lb.srv = &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*lb.cur.Load()).ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	lb.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		DisableCompression:  true,
	}}
	// Until the first stack is installed every request gets an empty 200,
	// which is all warm needs.
	lb.serve(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	go func() { lb.done <- lb.srv.Serve(ln) }()
	return lb, nil
}

func (lb *loopback) serve(h http.Handler) { lb.cur.Store(&h) }

func (lb *loopback) close() error {
	lb.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := lb.srv.Shutdown(ctx)
	if serr := <-lb.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// warm opens both client connections before the clock starts.
func (lb *loopback) warm() error {
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, errs[c] = lb.do(request{method: http.MethodGet, path: "/healthz", want: http.StatusOK}, -1, nil)
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// request is one HTTP call of an operation program.
type request struct {
	method string
	path   string
	body   []byte
	want   int
}

// seqHeader carries the request's index in the program so the traced run
// can pair client, outer and inner timings of the same request. It is sent
// in every run, traced or not, so both send identical requests.
const seqHeader = "X-Bench-Seq"

// do sends req and reads the whole reply. It returns the client latency
// (until the body is read) and, when keep is non-nil, the body.
func (lb *loopback) do(req request, seq int, keep *bytes.Buffer) (time.Duration, error) {
	var body io.Reader
	if req.body != nil {
		body = bytes.NewReader(req.body)
	}
	hr, err := http.NewRequest(req.method, lb.base+req.path, body)
	if err != nil {
		return 0, err
	}
	hr.Header.Set(seqHeader, strconv.Itoa(seq))
	if req.body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := lb.client.Do(hr)
	if err != nil {
		return 0, err
	}
	dst := io.Discard
	if keep != nil {
		keep.Reset()
		dst = keep
	}
	_, err = io.Copy(dst, resp.Body)
	elapsed := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != req.want {
		return elapsed, fmt.Errorf("%s %s: status %d, want %d", req.method, req.path, resp.StatusCode, req.want)
	}
	return elapsed, nil
}
