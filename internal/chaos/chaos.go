// Package chaos is the soak harness behind the serving stack's resilience
// claims: it drives a randomized client storm against a live rating
// service while a fault schedule abuses the WAL's disk — fsync stalls past
// the circuit-breaker threshold, uniform device latency, disk-full
// windows, and finally a simulated power loss — then audits the wreckage
// against the SLO invariants:
//
//  1. Durability: no rating acknowledged "durable" is ever absent from a
//     power-loss crash image taken after the acknowledgement. Ratings
//     acknowledged "pending" (breaker open) may legitimately vanish.
//  2. Fast fail: shed requests (429/503) complete quickly — overload
//     never turns into unbounded client latency.
//  3. Convergence: a service recovered from the crash image serves
//     P-scores bit-identical to a clean replay of exactly the ratings
//     that survived on disk.
//
// The harness lives in a non-test package so both the test suite's short
// soak (chaos-smoke in CI) and longer manual runs share one
// implementation.
package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"repro/internal/agg"
	"repro/internal/faultfs"
	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/wal"
)

// Options configures one storm.
type Options struct {
	// Seed drives every random choice (per-client streams are derived
	// from it), so a storm's request mix is reproducible even though
	// goroutine interleaving is not.
	Seed uint64
	// Products and Horizon shape the service under test.
	Products []string
	Horizon  float64
	// Shards is the product-shard count for the store under test (0 means
	// 1). With more shards the storm's submits commit through independent
	// WAL segments, so the fault schedule's stalls and disk-full windows
	// cut each stream at a different point.
	Shards int
	// Clients is the number of concurrent storm clients; each issues
	// RequestsPerClient requests (≈80% submits, 20% reads).
	Clients           int
	RequestsPerClient int
	// RequestTimeout bounds each storm request client-side; expired
	// requests count as shed by deadline.
	RequestTimeout time.Duration
	// Pacing is the maximum random inter-request sleep per client (mean
	// Pacing/2). It stretches the storm across the fault schedule so every
	// phase sees live traffic; zero means full speed.
	Pacing time.Duration
	// MaxInflight/QueueDepth/RateLimit configure admission control in
	// front of the handler (zero disables that control).
	MaxInflight int
	QueueDepth  int
	RateLimit   float64
	// StallThreshold arms the WAL fsync breaker; Schedule's stall phases
	// should exceed it to trip the breaker mid-storm.
	StallThreshold time.Duration
	ProbeInterval  time.Duration
	// Schedule is applied to the fault filesystem phase by phase while
	// the storm runs.
	Schedule []Phase
}

// Phase is one step of the fault schedule, applied for Duration.
type Phase struct {
	// Name labels the phase in failure output.
	Name string
	// Stall makes every fsync block this long (0 = healthy).
	Stall time.Duration
	// Latency delays every write and fsync (0 = none).
	Latency time.Duration
	// SpaceBudget, when ≥ 0, allows only this many more written bytes
	// before ENOSPC. -1 = unlimited.
	SpaceBudget int64
	Duration    time.Duration
}

// Submission is one storm submission and its observed outcome.
type Submission struct {
	Product string
	Rater   string
	Value   float64
	Day     float64
	// Status is the HTTP status (0 = transport error / timeout).
	Status int
	// Durability is the ack from a 201 ("durable" or "pending").
	Durability string
	Latency    time.Duration
}

// Report is the storm's audit trail.
type Report struct {
	Submissions []Submission
	// ShedLatencies holds the latency of every 429/503/timeout response
	// across both submits and reads.
	ShedLatencies []time.Duration
	// Reads counts GET requests issued; ReadsOK counts 200s.
	Reads, ReadsOK int
	// BreakerTripped records whether any submit was acked pending —
	// the schedule's stall phases must be long enough to make this true
	// or invariant 1 is tested vacuously.
	BreakerTripped bool
}

// DurableAcked returns the submissions acknowledged 201+durable.
func (r *Report) DurableAcked() []Submission {
	var out []Submission
	for _, s := range r.Submissions {
		if s.Status == http.StatusCreated && s.Durability == "durable" {
			out = append(out, s)
		}
	}
	return out
}

// Accepted returns every 201 submission regardless of durability.
func (r *Report) Accepted() []Submission {
	var out []Submission
	for _, s := range r.Submissions {
		if s.Status == http.StatusCreated {
			out = append(out, s)
		}
	}
	return out
}

// ShedP99 returns the 99th-percentile shed latency (0 when nothing shed).
func (r *Report) ShedP99() time.Duration {
	if len(r.ShedLatencies) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), r.ShedLatencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := len(sorted) * 99 / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Harness owns a service under storm: the fault filesystem, the durable
// service on top of it, and the admission-controlled HTTP front end.
type Harness struct {
	Opts Options
	FS   *faultfs.FS
	Svc  *server.Service
	TS   *httptest.Server
}

// New builds the service stack over a fresh fault filesystem. Callers
// must Close the harness (or crash it with CrashImage + Close).
func New(opts Options) (*Harness, error) {
	fs := faultfs.New()
	svc, _, err := server.OpenWAL(agg.NewPScheme(), opts.Horizon, opts.Products, server.WALOptions{
		FS:             fs,
		Shards:         opts.Shards,
		SyncEvery:      1, // every durable ack is backed by its own fsync
		StallThreshold: opts.StallThreshold,
		ProbeInterval:  opts.ProbeInterval,
	})
	if err != nil {
		return nil, err
	}
	handler := svc.Handler()
	admission := resilience.AdmissionOptions{
		ExemptPaths: map[string]bool{"/healthz": true, "/readyz": true},
	}
	if opts.MaxInflight > 0 {
		admission.Limiter = resilience.NewLimiter(opts.MaxInflight, opts.QueueDepth)
	}
	if opts.RateLimit > 0 {
		admission.Rate = resilience.NewRateLimiter(opts.RateLimit, opts.RateLimit*4)
	}
	if admission.Limiter != nil || admission.Rate != nil {
		handler = resilience.Admission(handler, admission)
	}
	return &Harness{Opts: opts, FS: fs, Svc: svc, TS: httptest.NewServer(handler)}, nil
}

// Close tears the stack down in drain order: HTTP first (stop accepting,
// drain in-flight), then the service (flush + close the WAL).
func (h *Harness) Close() error {
	h.TS.Close()
	return h.Svc.Close()
}

// Storm runs the configured client storm with the fault schedule applied
// concurrently, and returns the audit report once every client finishes
// and the filesystem faults are cleared.
func (h *Harness) Storm() *Report {
	var (
		mu  sync.Mutex
		rep Report
	)
	stop := make(chan struct{})
	var schedWG sync.WaitGroup
	schedWG.Add(1)
	go func() {
		defer schedWG.Done()
		h.runSchedule(stop)
	}()

	var wg sync.WaitGroup
	for c := 0; c < h.Opts.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := stats.NewRNG(h.Opts.Seed + uint64(c)*7919)
			client := &http.Client{}
			for i := 0; i < h.Opts.RequestsPerClient; i++ {
				if h.Opts.Pacing > 0 {
					time.Sleep(time.Duration(rng.Int64N(int64(h.Opts.Pacing))))
				}
				if rng.Float64() < 0.8 {
					sub := Submission{
						Product: h.Opts.Products[rng.IntN(len(h.Opts.Products))],
						Rater:   fmt.Sprintf("c%02dr%04d", c, i),
						Value:   float64(rng.IntN(9)+1) * 0.5,
						Day:     math.Floor(rng.Float64()*h.Opts.Horizon*2) / 2,
					}
					h.submit(client, &sub)
					mu.Lock()
					rep.Submissions = append(rep.Submissions, sub)
					if sub.Durability == "pending" {
						rep.BreakerTripped = true
					}
					if shed(sub.Status) {
						rep.ShedLatencies = append(rep.ShedLatencies, sub.Latency)
					}
					mu.Unlock()
				} else {
					status, lat := h.read(client, rng)
					mu.Lock()
					rep.Reads++
					if status == http.StatusOK {
						rep.ReadsOK++
					}
					if shed(status) {
						rep.ShedLatencies = append(rep.ShedLatencies, lat)
					}
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	schedWG.Wait()
	h.FS.ClearFaults()
	return &rep
}

// shed reports whether a status is a fast-fail rejection (or a client
// timeout, status 0).
func shed(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable || status == 0
}

// runSchedule applies the fault phases in order until the storm ends,
// then clears all faults.
func (h *Harness) runSchedule(stop <-chan struct{}) {
	for _, ph := range h.Opts.Schedule {
		h.FS.StallSyncs(ph.Stall)
		h.FS.SetOpLatency(ph.Latency)
		if ph.SpaceBudget >= 0 {
			h.FS.LimitSpace(ph.SpaceBudget)
		} else {
			h.FS.LimitSpace(-1)
		}
		select {
		case <-stop:
			return
		case <-time.After(ph.Duration):
		}
	}
	h.FS.ClearFaults()
	<-stop
}

func (h *Harness) submit(client *http.Client, sub *Submission) {
	body, _ := json.Marshal(server.SubmitRequest{
		Product: sub.Product, Rater: sub.Rater, Value: sub.Value, Day: sub.Day,
	})
	ctx, cancel := context.WithTimeout(context.Background(), h.Opts.RequestTimeout)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "POST", h.TS.URL+"/ratings", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := client.Do(req)
	sub.Latency = time.Since(start)
	if err != nil {
		sub.Status = 0 // timeout or transport failure: durability unknown, NOT acked
		return
	}
	defer resp.Body.Close()
	sub.Status = resp.StatusCode
	if resp.StatusCode == http.StatusCreated {
		var ack map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&ack); err == nil {
			sub.Durability = ack["durability"]
		}
	}
	// The ack is only complete once the response body is read: the
	// happened-before chain (WAL fsync → handler response → client read)
	// is what lets the audit treat "acked durable before the crash cut"
	// as "fsynced before the crash cut".
}

func (h *Harness) read(client *http.Client, rng *rand.Rand) (int, time.Duration) {
	paths := []string{"/products/%s/scores", "/products/%s/report"}
	path := fmt.Sprintf(paths[rng.IntN(len(paths))], h.Opts.Products[rng.IntN(len(h.Opts.Products))])
	ctx, cancel := context.WithTimeout(context.Background(), h.Opts.RequestTimeout)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", h.TS.URL+path, nil)
	start := time.Now()
	resp, err := client.Do(req)
	lat := time.Since(start)
	if err != nil {
		return 0, lat
	}
	resp.Body.Close()
	return resp.StatusCode, lat
}

// Audit checks the three SLO invariants against a power-loss crash image
// of the harness's filesystem and returns every violation found (empty =
// all invariants hold). maxShedP99 bounds invariant 2.
func Audit(rep *Report, image *faultfs.FS, opts Options, maxShedP99 time.Duration) []string {
	var violations []string

	// Enumerate exactly the ratings that survived on disk.
	survivors, err := survivingRatings(image)
	if err != nil {
		return []string{fmt.Sprintf("crash image unreadable: %v", err)}
	}

	// Invariant 1: every durable ack is on disk.
	for _, s := range rep.DurableAcked() {
		if !survivors[key(s.Product, s.Rater)] {
			violations = append(violations,
				fmt.Sprintf("durable-acked rating lost: %s/%s value=%v day=%v", s.Product, s.Rater, s.Value, s.Day))
		}
	}

	// Invariant 2: shedding is fast-fail.
	if p99 := rep.ShedP99(); p99 > maxShedP99 {
		violations = append(violations,
			fmt.Sprintf("shed p99 = %v over budget %v (%d shed)", p99, maxShedP99, len(rep.ShedLatencies)))
	}

	// Invariant 3: recovery from the image is bit-exact vs a clean replay
	// of the surviving ratings.
	if vs := auditConvergence(image, opts); len(vs) > 0 {
		violations = append(violations, vs...)
	}
	return violations
}

func key(product, rater string) string { return product + "\x00" + rater }

// shardStreams enumerates the independent WAL streams in a crash image:
// the manifest names the shard count and each shard directory is one
// stream.
func shardStreams(image *faultfs.FS) ([]wal.FS, error) {
	fsys := image.Clone()
	m, err := wal.ReadManifest(fsys)
	if err != nil {
		return nil, err
	}
	if m == nil {
		return nil, errors.New("crash image has no WAL manifest")
	}
	streams := make([]wal.FS, m.Shards)
	for i := range streams {
		if streams[i], err = wal.Sub(fsys, wal.ShardDir(i)); err != nil {
			return nil, err
		}
	}
	return streams, nil
}

// survivingRatings reads the crash image directly through the wal package
// (snapshot + log replay, per shard stream) and returns the set of
// product/rater pairs on stable storage.
func survivingRatings(image *faultfs.FS) (map[string]bool, error) {
	streams, err := shardStreams(image)
	if err != nil {
		return nil, err
	}
	out := make(map[string]bool)
	for _, fsys := range streams {
		w, _, err := wal.Open(fsys, wal.Options{}, wal.ReplayFunc(func(r wal.Record, _ bool) {
			out[key(r.Product, r.Rater)] = true
		}))
		if err != nil {
			return nil, err
		}
		w.Close()
	}
	return out, nil
}

// auditConvergence recovers a service from the image and compares its
// P-scores bit-for-bit against a clean in-memory service replaying the
// same surviving records. The recovered side evaluates cold; the clean
// side has resumed its evaluation many times while replaying (see
// replayReference), so a resume that keeps a stale checkpoint or memo
// entry shows up as a score mismatch.
func auditConvergence(image *faultfs.FS, opts Options) []string {
	recovered, _, err := server.OpenWAL(agg.NewPScheme(), opts.Horizon, opts.Products, server.WALOptions{FS: image.Clone(), Shards: opts.Shards})
	if err != nil {
		return []string{fmt.Sprintf("recovery from crash image failed: %v", err)}
	}
	defer recovered.Close()

	rec, err := replayReference(image, opts)
	if err != nil {
		return []string{err.Error()}
	}
	defer rec.Close()

	var violations []string
	ctx := context.Background()
	for _, id := range opts.Products {
		got, gerr := recovered.Scores(ctx, id)
		want, werr := rec.Scores(ctx, id)
		if gerr != nil || werr != nil {
			violations = append(violations, fmt.Sprintf("scores(%s): recovered err=%v clean err=%v", id, gerr, werr))
			continue
		}
		if len(got) != len(want) {
			violations = append(violations, fmt.Sprintf("scores(%s): %d vs %d periods", id, len(got), len(want)))
			continue
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				violations = append(violations,
					fmt.Sprintf("scores(%s) period %d: recovered %v != clean %v", id, i, got[i], want[i]))
			}
		}
	}
	return violations
}

// replayEvalEvery is how many accepted ratings replayReference applies
// between two score reads.
const replayEvalEvery = 8

// replayReference builds an in-memory service holding exactly the ratings
// that survived in the image, applied through the live validation path.
// It reads scores every replayEvalEvery accepted ratings, so its engine
// resumes from the checkpoints and memo the previous read left. The image
// is replayed shard by shard, so days arrive out of order and resumes cut
// back into history.
func replayReference(image *faultfs.FS, opts Options) (*server.Service, error) {
	streams, err := shardStreams(image)
	if err != nil {
		return nil, fmt.Errorf("read crash image: %v", err)
	}
	svc, err := server.New(agg.NewPScheme(), opts.Horizon, opts.Products)
	if err != nil {
		return nil, err
	}
	n := 0
	ctx := context.Background()
	for _, fsys := range streams {
		var replayErr error
		w, _, err := wal.Open(fsys, wal.Options{}, wal.ReplayFunc(func(r wal.Record, _ bool) {
			// Duplicates (snapshot + unrotated log overlap) and validation
			// rejects mirror the recovery path's own skip rules; any true
			// divergence surfaces as a score mismatch in the audit.
			if replayErr != nil || svc.Submit(ctx, r.Product, r.Rater, r.Value, r.Day) != nil {
				return
			}
			if n++; n%replayEvalEvery == 0 {
				if _, err := svc.Scores(ctx, r.Product); err != nil {
					replayErr = fmt.Errorf("clean replay: scores(%s): %v", r.Product, err)
				}
			}
		}))
		if err != nil {
			svc.Close()
			return nil, fmt.Errorf("read crash image: %v", err)
		}
		w.Close()
		if replayErr != nil {
			svc.Close()
			return nil, replayErr
		}
	}
	return svc, nil
}
