package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/faultfs"
	"repro/internal/stats"
)

// clients is the closed-loop load: this many goroutines, each on its own
// kept-alive connection, each sending its next request only after reading
// the previous reply.
const clients = 2

const (
	routeSubmit = iota
	routeReport
	nRoutes
)

var routeNames = [nRoutes]string{"submit", "report"}

type kind int

const (
	ingest kind = iota
	live
	restart
)

// workload is a fixed operation program: rounds(seconds) rounds, each of
// which sets up a fresh service, runs the same operations on it and checks
// what it served. The round count depends only on --seconds, never on how
// fast the machine is, so every run does the same work.
type workload struct {
	kind  kind
	shape shape
	// perSecond rounds per requested second (at least minRounds).
	perSecond float64
	// reopens per round: restart's operations, or the recovery checks
	// that end an ingest or live round.
	reopens int
	what    string // the headline latency
}

const minRounds = 3

func (w workload) rounds(seconds int) int {
	n := int(float64(seconds)*w.perSecond + 0.5)
	if n < minRounds {
		n = minRounds
	}
	return n
}

var workloads = map[string]workload{
	"ingest": {
		kind:      ingest,
		shape:     shape{horizon: 600, split: 300, attackDays: 30},
		perSecond: 0.6,
		reopens:   1,
		what:      "POST /ratings",
	},
	"live": {
		kind:      live,
		shape:     shape{horizon: 300, split: 150, attackDays: 10, streamMax: 160},
		perSecond: 0.45,
		reopens:   5,
		what:      "GET /products/{id}/report after its POST /ratings",
	},
	"restart": {
		kind:      restart,
		shape:     shape{horizon: 300, split: 150, attackDays: 10},
		perSecond: 0.4,
		reopens:   12,
		what:      "OpenWAL plus the first GET /products/tv1/report",
	},
}

// pass is what one execution of the whole program measured.
type pass struct {
	setup    []float64 // s, per round
	tput     []float64 // ops/s, per round
	headline []float64 // ms, client latency of the workload's headline request
	recover  []float64 // s, per reopen
	cpuPerOp []float64 // ms, per round
	heap     []float64 // MB, per round

	attempted, failed int
	mp                float64
	err               error // first correctness failure
}

type bench struct {
	out   io.Writer // per-round progress lines
	w     workload
	seeds []uint64 // one input seed per round, drawn from --seed
	lb    *loopback
	tr    *tracer

	// The current round's inputs, its reference (every streamed rating
	// acknowledged) and the reference's fair ratings (the MP baseline).
	in       *inputs
	ref      *reference
	fairOnly *dataset.Dataset
}

func newBench(out io.Writer, w workload, seed uint64, rounds int) (*bench, error) {
	rng := stats.NewRNG(seed)
	seeds := make([]uint64, rounds)
	for i := range seeds {
		seeds[i] = rng.Uint64()
	}
	lb, err := startLoopback()
	if err != nil {
		return nil, err
	}
	if err := lb.warm(); err != nil {
		lb.close()
		return nil, err
	}
	return &bench{out: out, w: w, seeds: seeds, lb: lb}, nil
}

// prepare generates round r's inputs and reference. Each round draws its
// own dataset, so a run's medians average over several datasets rather
// than depending on one draw.
func (b *bench) prepare(r int) error {
	in, err := makeInputs(b.seeds[r], b.w.shape)
	if err != nil {
		return err
	}
	all := make([]bool, len(in.stream))
	for i := range all {
		all[i] = true
	}
	b.in = in
	b.ref = newReference(in.accepted(all, false))
	b.fairOnly = in.accepted(all, true)
	return nil
}

func (b *bench) fail(p *pass, err error) {
	if p.err == nil {
		p.err = err
	}
}

// run executes the program once; tr, when non-nil, traces it.
func (b *bench) run(tr *tracer) (*pass, error) {
	b.tr = tr
	p := &pass{}
	for r := range b.seeds {
		start := time.Now()
		if err := b.prepare(r); err != nil {
			return nil, err
		}
		var err error
		if b.w.kind == restart {
			err = b.restartRound(p)
		} else {
			err = b.streamRound(p, r == 0)
		}
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(b.out, "  round %d: %d ratings loaded, %d streamed; setup %.4f s, %.2f ops/s, %.4f ms CPU/op, recover %.4f s; round took %.2f s\n",
			r, ratingCount(b.in.loaded), len(b.in.stream), p.setup[r], p.tput[r], p.cpuPerOp[r], p.recover[len(p.recover)-1], time.Since(start).Seconds())
	}
	return p, nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapMB is HeapAlloc after a forced collection, so it measures live data
// rather than when the collector last ran.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// streamRound is one round of ingest or live: load the first half, stream
// the program over HTTP, check what is served, then close and reopen the
// WAL to time recovery and check that every acknowledged rating survived.
func (b *bench) streamRound(p *pass, first bool) error {
	ctx := context.Background()
	mem := faultfs.New()
	start := time.Now()
	st, _, _, err := openStack(mem, b.in, b.tr)
	if err != nil {
		return err
	}
	if err := st.svc.Load(ctx, b.in.loaded); err != nil {
		return err
	}
	if b.w.kind == live {
		// The first evaluation belongs to set-up: the memo starts warm.
		if _, err := st.svc.Scores(ctx, b.in.products[0]); err != nil {
			return err
		}
	}
	b.lb.serve(st.handler)
	p.setup = append(p.setup, time.Since(start).Seconds())

	reqs, routes, k := program(b.in.stream, b.w.kind == live)
	lat := make([]time.Duration, len(reqs))
	// Collect set-up's garbage now, so every round's measured phase starts
	// from the same heap state instead of paying for what came before.
	runtime.GC()
	if b.tr != nil {
		b.tr.beginRound(len(reqs))
		if err := b.tr.phaseStart(st); err != nil {
			return err
		}
	}
	cpu0, t0 := cpuTime(), time.Now()
	acked, failed := b.runProgram(reqs, k, lat)
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	ops := len(b.in.stream)
	nacked := 0
	for _, a := range acked {
		if a {
			nacked++
		}
	}
	if b.tr != nil {
		if err := b.tr.phaseEnd(st, ops, nacked); err != nil {
			return err
		}
		b.tr.requests(routes, lat)
		if got := int(b.tr.deltas.sum("store_submit_total")); got != b.tr.acks {
			b.fail(p, fmt.Errorf("store_submit_total counted %d submits, clients saw %d acks", got, b.tr.acks))
		}
	}
	p.heap = append(p.heap, heapMB())
	p.attempted += ops
	p.failed += failed
	p.tput = append(p.tput, float64(ops)/wall.Seconds())
	p.cpuPerOp = append(p.cpuPerOp, ms(cpu)/float64(ops))
	headline := routeSubmit
	if b.w.kind == live {
		headline = routeReport
	}
	for i, d := range lat {
		if d > 0 && routes[i] == headline {
			p.headline = append(p.headline, ms(d))
		}
	}

	ref := b.ref
	if nacked != ops {
		ref = newReference(b.in.accepted(acked, false))
	}
	got, err := fetchServed(b.lb, b.in.products)
	if err != nil {
		return err
	}
	if err := ref.check(got); err != nil {
		b.fail(p, err)
	}
	if first && nacked == ops {
		p.mp = manipulationPower(got, b.fairOnly)
	}
	if err := st.svc.Close(); err != nil {
		return err
	}
	for j := 0; j < b.w.reopens; j++ {
		// A restarted process starts with an empty heap: drop the garbage
		// of what ran before so it is not collected on OpenWAL's time.
		runtime.GC()
		st, _, err := b.reopen(p, mem, ref)
		if err != nil {
			return err
		}
		if err := st.svc.Close(); err != nil {
			return err
		}
	}
	return nil
}

// reopen opens the stack over mem, records how long OpenWAL took, and
// checks that the recovered service holds exactly the reference's
// ratings. The caller closes the returned stack.
func (b *bench) reopen(p *pass, mem *faultfs.FS, ref *reference) (*stack, time.Duration, error) {
	var before walSnap
	if b.tr != nil {
		before = b.tr.walT.snap()
	}
	st, open, rep, err := openStack(mem, b.in, b.tr)
	if err != nil {
		return nil, 0, err
	}
	p.recover = append(p.recover, open.Seconds())
	if b.tr != nil {
		if err := b.tr.recovered(st, before); err != nil {
			return nil, 0, err
		}
	}
	total := 0
	for _, pr := range ref.data.Products {
		n, err := st.svc.RatingCount(pr.ID)
		if err != nil {
			return nil, 0, err
		}
		if n != len(pr.Ratings) {
			b.fail(p, fmt.Errorf("%s: recovered %d ratings, %d were acknowledged", pr.ID, n, len(pr.Ratings)))
		}
		total += len(pr.Ratings)
	}
	if got := rep.SnapshotRatings + rep.ReplayedRatings; got != total {
		b.fail(p, fmt.Errorf("recovery read %d ratings, %d were acknowledged", got, total))
	}
	return st, open, nil
}

// program is the requests of a stream round: one POST /ratings per
// streamed rating, each followed, when withReports, by a GET of that
// product's report. k is the number of requests per operation.
func program(stream []rating, withReports bool) (reqs []request, routes []int, k int) {
	k = 1
	if withReports {
		k = 2
	}
	for _, s := range stream {
		reqs = append(reqs, request{method: http.MethodPost, path: "/ratings", body: s.body, want: http.StatusCreated})
		routes = append(routes, routeSubmit)
		if withReports {
			reqs = append(reqs, request{method: http.MethodGet, path: reportPath(s.product), want: http.StatusOK})
			routes = append(routes, routeReport)
		}
	}
	return reqs, routes, k
}

// runProgram runs reqs on the closed-loop clients. Operation i is the k
// requests starting at reqs[i*k]; its first request is a submit. It
// returns which submits were acknowledged and how many operations failed.
func (b *bench) runProgram(reqs []request, k int, lat []time.Duration) ([]bool, int) {
	n := len(reqs) / k
	acked := make([]bool, n)
	opFailed := make([]bool, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				for j := 0; j < k; j++ {
					seq := i*k + j
					d, err := b.lb.do(reqs[seq], seq, nil)
					if err != nil {
						opFailed[i] = true
						break
					}
					lat[seq] = d
					if j == 0 {
						acked[i] = true
					}
				}
			}
		}()
	}
	wg.Wait()
	failed := 0
	for _, f := range opFailed {
		if f {
			failed++
		}
	}
	return acked, failed
}

// restartRound writes the dataset through a durable service (Load, then
// one Submit per streamed rating), closes it, and then reopens it
// w.reopens times; each reopen serves the first report of the first
// product over HTTP — a cold evaluation — and closes again.
func (b *bench) restartRound(p *pass) error {
	ctx := context.Background()
	mem := faultfs.New()
	start := time.Now()
	st, _, _, err := openStack(mem, b.in, nil)
	if err != nil {
		return err
	}
	if err := st.svc.Load(ctx, b.in.loaded); err != nil {
		return err
	}
	for _, s := range b.in.stream {
		if err := st.svc.Submit(ctx, s.product, s.r.Rater, s.r.Value, s.r.Day); err != nil {
			return fmt.Errorf("set-up submit: %w", err)
		}
	}
	if err := st.svc.Close(); err != nil {
		return err
	}
	p.setup = append(p.setup, time.Since(start).Seconds())

	first := b.in.products[0]
	req := request{method: http.MethodGet, path: reportPath(first), want: http.StatusOK}
	lat := make([]time.Duration, b.w.reopens)
	if b.tr != nil {
		b.tr.beginRound(b.w.reopens)
		if err := b.tr.profileStart(); err != nil {
			return err
		}
	}
	// An operation is OpenWAL, the first report and Close. Only those are
	// timed; the collection before each reopen, the recovery checks and
	// the scrapes between them are not.
	var wall, cpu time.Duration
	timed := func(f func() error) error {
		cpu0, t0 := cpuTime(), time.Now()
		err := f()
		wall += time.Since(t0)
		cpu += cpuTime() - cpu0
		return err
	}
	var body bytes.Buffer
	for j := 0; j < b.w.reopens; j++ {
		runtime.GC() // as in reopen's callers: a restarted process has no garbage
		var cur *stack
		var open time.Duration
		if err := timed(func() (err error) {
			cur, open, err = b.reopen(p, mem, b.ref)
			return err
		}); err != nil {
			return err
		}
		b.lb.serve(cur.handler)
		var before metrics
		if b.tr != nil {
			if before, err = cur.scrape(); err != nil {
				return err
			}
		}
		var d time.Duration
		err := timed(func() (err error) {
			d, err = b.lb.do(req, j, &body)
			return err
		})
		p.attempted++
		if err != nil {
			p.failed++
		} else {
			lat[j] = d
			p.headline = append(p.headline, ms(open+d))
			rep, err := decodeReport(body.Bytes())
			if err == nil {
				err = b.ref.checkReport(first, rep)
			}
			if err != nil {
				b.fail(p, fmt.Errorf("reopen %d: %w", j, err))
			}
		}
		if b.tr != nil {
			if err := b.tr.scrapeEnd(cur, before); err != nil {
				return err
			}
			b.tr.ops++
		}
		if j == b.w.reopens-1 {
			p.heap = append(p.heap, heapMB())
		}
		if err := timed(cur.svc.Close); err != nil {
			return err
		}
	}
	if b.tr != nil {
		if err := b.tr.profileStop(); err != nil {
			return err
		}
		routes := make([]int, b.w.reopens)
		for j := range routes {
			routes[j] = routeReport
		}
		b.tr.requests(routes, lat)
	}
	p.tput = append(p.tput, float64(b.w.reopens)/wall.Seconds())
	p.cpuPerOp = append(p.cpuPerOp, ms(cpu)/float64(b.w.reopens))
	return nil
}
