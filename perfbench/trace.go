package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wal"
)

// tracer is the per-layer instrumentation of a traced pass, all of it
// outside the program: timing wrappers on either side of
// resilience.Admission, a timing wal.FS under the WAL, registry scrapes
// around each measured phase, and a CPU profile of each measured phase.
type tracer struct {
	// outer and inner hold, per request index, the nanoseconds spent in
	// the handler chain outside and inside Admission.
	outer, inner []atomic.Int64

	walT walTrace

	// deltas sums, per registry series, after-minus-before over every
	// measured phase. replaySec has one value per reopen; readBytes sums
	// the WAL bytes the reopens read.
	deltas    metrics
	replaySec []float64
	reopens   int
	readBytes int64

	// Per measured request, by route: client latency and the time spent
	// outside and inside Admission.
	clientMS, outerMS, innerMS [nRoutes][]float64

	cpu map[string]int64 // CPU profile samples by module (cpuModules)

	allocBytes, gcCycles uint64
	ops, acks            int

	// State of the measured phase in progress.
	ws          walSnap
	phaseBefore metrics
	memBefore   runtime.MemStats
	prof        bytes.Buffer
}

func newTracer() *tracer {
	return &tracer{deltas: metrics{}, cpu: map[string]int64{}}
}

// beginRound sizes the per-request timing slots for a program of n
// requests.
func (t *tracer) beginRound(n int) {
	t.outer = make([]atomic.Int64, n)
	t.inner = make([]atomic.Int64, n)
}

// wrap times next into slots, keyed by the request's sequence header.
func (t *tracer) wrap(next http.Handler, slots *[]atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		el := time.Since(start)
		if i, err := strconv.Atoi(r.Header.Get(seqHeader)); err == nil && i >= 0 && i < len(*slots) {
			(*slots)[i].Store(int64(el))
		}
	})
}

// phaseStart marks the start of a measured phase on st.
func (t *tracer) phaseStart(st *stack) error {
	m, err := st.scrape()
	if err != nil {
		return err
	}
	t.phaseBefore = m
	t.ws = t.walT.snap()
	return t.profileStart()
}

// phaseEnd closes the measured phase opened by phaseStart: ops operations
// of which acks were acknowledged submits.
func (t *tracer) phaseEnd(st *stack, ops, acks int) error {
	if err := t.profileStop(); err != nil {
		return err
	}
	t.ops += ops
	t.acks += acks
	t.walT.addSince(t.ws)
	return t.scrapeEnd(st, t.phaseBefore)
}

// profileStart starts the CPU profile and the allocation count of a
// measured phase; profileStop ends both and attributes the samples.
func (t *tracer) profileStart() error {
	runtime.ReadMemStats(&t.memBefore)
	t.prof.Reset()
	return pprof.StartCPUProfile(&t.prof)
}

func (t *tracer) profileStop() error {
	pprof.StopCPUProfile()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.allocBytes += ms.TotalAlloc - t.memBefore.TotalAlloc
	t.gcCycles += uint64(ms.NumGC - t.memBefore.NumGC)
	return attributeProfile(t.prof.Bytes(), t.cpu)
}

// scrapeEnd adds st's registry movement since before to the deltas.
func (t *tracer) scrapeEnd(st *stack, before metrics) error {
	after, err := st.scrape()
	if err != nil {
		return err
	}
	for k, v := range after {
		t.deltas[k] += v - before[k]
	}
	return nil
}

// requests records the per-request splits of a finished program; routes
// gives each request's route and client its client latency.
func (t *tracer) requests(routes []int, client []time.Duration) {
	for i, c := range client {
		o, in := t.outer[i].Load(), t.inner[i].Load()
		if c == 0 || o == 0 || in == 0 {
			continue
		}
		r := routes[i]
		t.clientMS[r] = append(t.clientMS[r], ms(c))
		t.outerMS[r] = append(t.outerMS[r], ms(time.Duration(o)))
		t.innerMS[r] = append(t.innerMS[r], ms(time.Duration(in)))
	}
}

// recovered records one reopen's replay: store_replay_seconds of the
// reopened stack (max over shards) and the WAL bytes read since before.
func (t *tracer) recovered(st *stack, before walSnap) error {
	m, err := st.scrape()
	if err != nil {
		return err
	}
	t.replaySec = append(t.replaySec, m.max("store_replay_seconds"))
	t.readBytes += t.walT.readBytes.Load() - before.readBytes
	t.reopens++
	return nil
}

// walTrace counts what the WAL asks of its filesystem.
type walTrace struct {
	readBytes, writeBytes atomic.Int64
	fsNanos               atomic.Int64 // time inside any FS call
	mu                    sync.Mutex
	syncUS                []float64 // log fsyncs (snapshot fsyncs excluded)
	snapMS                []float64 // snapshot.tmp create → rename

	// Summed over measured phases by addSince.
	phaseWrite, phaseFSNanos int64
	phaseSyncUS, phaseSnapMS []float64
}

type walSnap struct {
	readBytes, writeBytes, fsNanos int64
	syncs, snaps                   int
}

func (w *walTrace) snap() walSnap {
	w.mu.Lock()
	defer w.mu.Unlock()
	return walSnap{w.readBytes.Load(), w.writeBytes.Load(), w.fsNanos.Load(), len(w.syncUS), len(w.snapMS)}
}

func (w *walTrace) addSince(s walSnap) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.phaseWrite += w.writeBytes.Load() - s.writeBytes
	w.phaseFSNanos += w.fsNanos.Load() - s.fsNanos
	w.phaseSyncUS = append(w.phaseSyncUS, w.syncUS[s.syncs:]...)
	w.phaseSnapMS = append(w.phaseSnapMS, w.snapMS[s.snaps:]...)
}

// The WAL's file names (internal/wal): snapshots are written to
// snapshotTmp, fsynced, then renamed over snapshotName.
const (
	snapshotTmp  = "snapshot.tmp"
	snapshotName = "snapshot.json"
)

// fs returns a timing FS over base.
func (t *tracer) fs(base wal.FS) wal.FS { return &timingFS{base: base, t: &t.walT} }

// timingFS times every call into the WAL's filesystem. It forwards Sub,
// so shard subdirectories are laid out exactly as without it.
type timingFS struct {
	base      wal.FS
	t         *walTrace
	snapStart atomic.Int64
}

func (f *timingFS) timed(start time.Time) { f.t.fsNanos.Add(int64(time.Since(start))) }

func (f *timingFS) Create(name string) (wal.File, error) {
	defer f.timed(time.Now())
	if name == snapshotTmp {
		f.snapStart.Store(time.Now().UnixNano())
	}
	file, err := f.base.Create(name)
	return f.file(file, name), err
}

func (f *timingFS) Open(name string) (wal.File, error) {
	defer f.timed(time.Now())
	file, err := f.base.Open(name)
	return f.file(file, name), err
}

func (f *timingFS) OpenAppend(name string) (wal.File, error) {
	defer f.timed(time.Now())
	file, err := f.base.OpenAppend(name)
	return f.file(file, name), err
}

func (f *timingFS) Rename(oldname, newname string) error {
	defer f.timed(time.Now())
	err := f.base.Rename(oldname, newname)
	if err == nil && oldname == snapshotTmp && newname == snapshotName {
		if s := f.snapStart.Swap(0); s != 0 {
			f.t.mu.Lock()
			f.t.snapMS = append(f.t.snapMS, float64(time.Now().UnixNano()-s)/1e6)
			f.t.mu.Unlock()
		}
	}
	return err
}

func (f *timingFS) Remove(name string) error {
	defer f.timed(time.Now())
	return f.base.Remove(name)
}

func (f *timingFS) Truncate(name string, size int64) error {
	defer f.timed(time.Now())
	return f.base.Truncate(name, size)
}

func (f *timingFS) Size(name string) (int64, error) {
	defer f.timed(time.Now())
	return f.base.Size(name)
}

func (f *timingFS) Sub(dir string) (wal.FS, error) {
	sub, err := wal.Sub(f.base, dir)
	if err != nil {
		return nil, err
	}
	return &timingFS{base: sub, t: f.t}, nil
}

func (f *timingFS) file(file wal.File, name string) wal.File {
	if file == nil {
		return nil
	}
	return &timingFile{File: file, fs: f, log: name != snapshotTmp}
}

type timingFile struct {
	wal.File
	fs  *timingFS
	log bool
}

func (h *timingFile) Read(p []byte) (int, error) {
	defer h.fs.timed(time.Now())
	n, err := h.File.Read(p)
	h.fs.t.readBytes.Add(int64(n))
	return n, err
}

func (h *timingFile) Write(p []byte) (int, error) {
	defer h.fs.timed(time.Now())
	n, err := h.File.Write(p)
	h.fs.t.writeBytes.Add(int64(n))
	return n, err
}

func (h *timingFile) Sync() error {
	start := time.Now()
	err := h.File.Sync()
	el := time.Since(start)
	h.fs.t.fsNanos.Add(int64(el))
	if h.log {
		h.fs.t.mu.Lock()
		h.fs.t.syncUS = append(h.fs.t.syncUS, float64(el)/1e3)
		h.fs.t.mu.Unlock()
	}
	return err
}

func (h *timingFile) Close() error {
	defer h.fs.timed(time.Now())
	return h.File.Close()
}

// metrics is a registry scrape: series (name plus labels) → value.
type metrics map[string]float64

// parseMetrics reads the Prometheus text exposition.
func parseMetrics(text []byte) metrics {
	m := metrics{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m
}

// series returns the values of every series of the named metric.
func (m metrics) series(name string) []float64 {
	var out []float64
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			out = append(out, v)
		}
	}
	sort.Float64s(out)
	return out
}

func (m metrics) sum(name string) float64 {
	s := 0.0
	for _, v := range m.series(name) {
		s += v
	}
	return s
}

func (m metrics) max(name string) float64 {
	s := m.series(name)
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1]
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerUnits is every per-layer metric with its unit, in report order.
var layerUnits = []struct{ name, unit string }{
	{"server.submit_ms", "ms"}, {"server.report_ms", "ms"}, {"server.transport_ms", "ms"},
	{"resilience.admit_us", "us"}, {"resilience.queue_wait_ms", "ms"}, {"resilience.shed", "count"},
	{"store.submits", "count"}, {"store.shard_skew", "ratio"}, {"store.replay_ms", "ms"},
	{"wal.syncs_per_rating", "ratio"}, {"wal.sync_us", "us"}, {"wal.batch_size", "count"},
	{"wal.bytes_per_rating", "B"}, {"wal.snapshots", "count"}, {"wal.snapshot_ms", "ms"}, {"wal.read_mb", "MB"},
	{"engine.evals", "count"}, {"engine.eval_ms", "ms"}, {"engine.memo_hit_ratio", "ratio"}, {"engine.analyzed_per_eval", "count"},
	{"cpu.server", "share"}, {"cpu.resilience", "share"}, {"cpu.obs", "share"}, {"cpu.store", "share"},
	{"cpu.dataset", "share"}, {"cpu.wal", "share"}, {"cpu.engine", "share"}, {"cpu.detect", "share"},
	{"cpu.armodel", "share"}, {"cpu.trust", "share"}, {"cpu.gc", "share"}, {"cpu.client", "share"}, {"cpu.other", "share"},
	{"runtime.alloc_kb_per_op", "KB"}, {"runtime.gc_cycles", "count"},
}

// layerMetrics turns the traced pass into the per-layer metrics.
func (t *tracer) layerMetrics() map[string]float64 {
	d := t.deltas
	var transport, admit []float64
	for r := range t.clientMS {
		for i := range t.clientMS[r] {
			transport = append(transport, t.clientMS[r][i]-t.outerMS[r][i])
			admit = append(admit, (t.outerMS[r][i]-t.innerMS[r][i])*1e3)
		}
	}
	acks := float64(t.acks)
	perShard := d.series("store_submit_total")
	mean := ratio(d.sum("store_submit_total"), float64(len(perShard)))
	evals := d.sum("engine_eval_seconds_count")
	memoHits, memoMiss := d.sum("engine_memo_hits"), d.sum("engine_memo_misses")
	out := map[string]float64{
		"server.submit_ms":         median(t.innerMS[routeSubmit]),
		"server.report_ms":         median(t.innerMS[routeReport]),
		"server.transport_ms":      median(transport),
		"resilience.admit_us":      median(admit),
		"resilience.queue_wait_ms": ratio(d.sum("admission_queue_wait_seconds_sum"), d.sum("admission_queue_wait_seconds_count")) * 1e3,
		"resilience.shed":          d.sum("admission_shed_total"),
		"store.submits":            d.sum("store_submit_total"),
		"store.shard_skew":         ratio(d.max("store_submit_total"), mean),
		"store.replay_ms":          median(t.replaySec) * 1e3,
		"wal.syncs_per_rating":     ratio(float64(len(t.walT.phaseSyncUS)), acks),
		"wal.sync_us":              median(t.walT.phaseSyncUS),
		"wal.batch_size":           ratio(d.sum("wal_batch_size_sum"), d.sum("wal_batch_size_count")),
		"wal.bytes_per_rating":     ratio(float64(t.walT.phaseWrite), acks),
		"wal.snapshots":            float64(len(t.walT.phaseSnapMS)),
		"wal.snapshot_ms":          median(t.walT.phaseSnapMS),
		"wal.read_mb":              ratio(float64(t.readBytes), float64(t.reopens)) / 1e6,
		"engine.evals":             evals,
		"engine.eval_ms":           ratio(d.sum("engine_eval_seconds_sum"), evals) * 1e3,
		"engine.memo_hit_ratio":    ratio(memoHits, memoHits+memoMiss),
		"engine.analyzed_per_eval": ratio(d.sum("engine_products_analyzed_total"), evals),
		"runtime.alloc_kb_per_op":  ratio(float64(t.allocBytes), float64(t.ops)) / 1e3,
		"runtime.gc_cycles":        float64(t.gcCycles),
	}
	var samples int64
	for _, n := range t.cpu {
		samples += n
	}
	for _, mod := range cpuModules {
		out["cpu."+mod] = ratio(float64(t.cpu[mod]), float64(samples))
	}
	return out
}

// layerTable prints, per route, the mean client time split into transport
// (client minus outer handler), admission (outer minus inner), handler
// (inner), and within the handler the engine recompute and WAL I/O; the
// rest of the handler is the unexplained part.
func (t *tracer) layerTable(w io.Writer, workload string) {
	d := t.deltas
	fmt.Fprintf(w, "layer table: %s (traced pass, means per request, ms)\n", workload)
	fmt.Fprintf(w, "  %-8s %7s %9s %9s %9s %9s %9s %9s %11s\n",
		"route", "n", "client", "transport", "admission", "handler", "eval", "wal", "unexplained")
	for r := range t.clientMS {
		n := len(t.clientMS[r])
		if n == 0 {
			continue
		}
		client, outer, inner := mean(t.clientMS[r]), mean(t.outerMS[r]), mean(t.innerMS[r])
		var eval, walMS float64
		switch r {
		case routeReport:
			eval = ratio(d.sum("engine_eval_seconds_sum")*1e3, float64(n))
		case routeSubmit:
			walMS = ratio(float64(t.walT.phaseFSNanos)/1e6, float64(n))
		}
		fmt.Fprintf(w, "  %-8s %7d %9.4f %9.4f %9.4f %9.4f %9.4f %9.4f %11.4f\n",
			routeNames[r], n, client, client-outer, outer-inner, inner, eval, walMS, inner-eval-walMS)
	}
	if t.reopens > 0 {
		fmt.Fprintf(w, "  recover: %d reopens, replay max-shard p50 %.3f ms, %.3f MB read per reopen\n",
			t.reopens, median(t.replaySec)*1e3, ratio(float64(t.readBytes), float64(t.reopens))/1e6)
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quantile is the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
