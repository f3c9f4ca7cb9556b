package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/wal"
)

// small shrinks a workload to a self-test size: a short horizon, a short
// stream and two rounds.
func small(name string) workload {
	w := workloads[name]
	w.shape.horizon, w.shape.split, w.shape.attackDays = 90, 45, 5
	w.shape.streamMax = 60
	if w.reopens > 2 {
		w.reopens = 2
	}
	return w
}

// TestSmallRuns runs every workload at self-test size, untraced and
// traced: no operation fails and the correctness check passes.
func TestSmallRuns(t *testing.T) {
	for _, name := range []string{"ingest", "live", "restart"} {
		t.Run(name, func(t *testing.T) {
			b, err := newBench(io.Discard, small(name), 7, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer b.lb.close()
			for _, tr := range []*tracer{nil, newTracer()} {
				p, err := b.run(tr)
				if err != nil {
					t.Fatal(err)
				}
				if p.failed != 0 || p.attempted == 0 || p.err != nil {
					t.Fatalf("traced=%v: attempted %d, failed %d, check: %v", tr != nil, p.attempted, p.failed, p.err)
				}
				for k, m := range endToEnd(b.w, p) {
					if !(m.Value > 0) {
						t.Errorf("traced=%v: end-to-end %s = %v, want > 0", tr != nil, k, m.Value)
					}
				}
				if tr == nil {
					continue
				}
				lm := tr.layerMetrics()
				if name != "restart" && lm["store.submits"] != float64(tr.acks) {
					t.Errorf("store.submits = %v, acks %d", lm["store.submits"], tr.acks)
				}
				if lm["resilience.shed"] != 0 {
					t.Errorf("resilience.shed = %v", lm["resilience.shed"])
				}
				if name != "ingest" && lm["engine.evals"] == 0 {
					t.Error("engine.evals = 0 on a workload that reads reports")
				}
				var buf bytes.Buffer
				tr.layerTable(&buf, name)
				if !strings.Contains(buf.String(), "unexplained") {
					t.Errorf("layer table lacks the unexplained column:\n%s", buf.String())
				}
			}
		})
	}
}

// servedIngest streams a small ingest program into a fresh service and
// returns the bench (holding the round's reference) and what it serves.
func servedIngest(t *testing.T) (*bench, map[string]served) {
	t.Helper()
	b, err := newBench(io.Discard, small("ingest"), 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.lb.close() })
	if err := b.prepare(0); err != nil {
		t.Fatal(err)
	}
	st, _, _, err := openStack(faultfs.New(), b.in, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.svc.Close() })
	if err := st.svc.Load(context.Background(), b.in.loaded); err != nil {
		t.Fatal(err)
	}
	b.lb.serve(st.handler)
	reqs, _, k := program(b.in.stream, false)
	if _, failed := b.runProgram(reqs, k, make([]time.Duration, len(reqs))); failed != 0 {
		t.Fatalf("%d submits failed", failed)
	}
	got, err := fetchServed(b.lb, b.in.products)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ref.check(got); err != nil {
		t.Fatalf("served tables differ from the reference: %v", err)
	}
	return b, got
}

func TestCheckRejectsOneULP(t *testing.T) {
	b, got := servedIngest(t)
	for _, p := range b.ref.data.Products {
		scores := b.ref.res.Table[p.ID]
		for i, v := range scores {
			if math.IsNaN(v) {
				continue
			}
			scores[i] = math.Nextafter(v, math.Inf(1))
			if err := b.ref.check(got); err == nil {
				t.Fatalf("check accepted %s period %d nudged by one ulp", p.ID, i)
			}
			return
		}
	}
	t.Fatal("reference has no score to nudge")
}

func TestCheckRejectsDroppedRating(t *testing.T) {
	b, got := servedIngest(t)
	acked := make([]bool, len(b.in.stream))
	for i := range acked {
		acked[i] = true
	}
	acked[len(acked)/2] = false
	if err := newReference(b.in.accepted(acked, false)).check(got); err == nil {
		t.Fatal("check accepted a reference missing one acknowledged rating")
	}
}

// TestTimingFSKeepsLayout checks that the timing FS forwards Sub: the WAL
// writes the same files through it as without it.
func TestTimingFSKeepsLayout(t *testing.T) {
	b, err := newBench(io.Discard, small("ingest"), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer b.lb.close()
	if err := b.prepare(0); err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*tracer{nil, newTracer()} {
		mem := faultfs.New()
		st, _, _, err := openStack(mem, b.in, tr)
		if err != nil {
			t.Fatal(err)
		}
		s := b.in.stream[0]
		if err := st.svc.Submit(context.Background(), s.product, s.r.Rater, s.r.Value, s.r.Day); err != nil {
			t.Fatal(err)
		}
		if err := st.svc.Close(); err != nil {
			t.Fatal(err)
		}
		shard := wal.ShardDir(st.svc.Shards() - 1)
		for _, name := range []string{"wal-manifest.json", shard + "/wal.log"} {
			if _, err := mem.ReadFile(name); err != nil {
				t.Errorf("traced=%v: %s: %v", tr != nil, name, err)
			}
		}
		if tr != nil && tr.walT.writeBytes.Load() == 0 {
			t.Error("timing FS saw no writes")
		}
	}
}

//go:noinline
func spin(d time.Duration) float64 {
	x := 0.0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	return x
}

func TestAttributeProfileChargesHarness(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	counts := map[string]int64{}
	if err := attributeProfile(buf.Bytes(), counts); err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, n := range counts {
		total += n
	}
	if total == 0 || counts["client"]*2 < total {
		t.Fatalf("harness spin not charged to client: %v", counts)
	}
}

func TestParseMetrics(t *testing.T) {
	m := parseMetrics([]byte("# HELP x y\n# TYPE x counter\nx{shard=\"0\"} 3\nx{shard=\"1\"} 5\nh_sum 1.5\nh_count 2\n"))
	if m.sum("x") != 8 || m.max("x") != 5 || m.sum("h_sum") != 1.5 || m.sum("h") != 0 {
		t.Fatalf("parsed %v", m)
	}
}

// TestBenchmarkJSONMatches checks that the repository's BENCHMARK.json
// names exactly the workloads and metrics, with the units, this harness
// reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, harness %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q unknown to the harness", w.Name)
		}
	}
	e2e := endToEnd(workloads["ingest"], &pass{})
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, harness %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if e2e[m.Name].Unit != m.Unit {
			t.Errorf("end-to-end %s: unit %q in BENCHMARK.json, %q in the harness", m.Name, m.Unit, e2e[m.Name].Unit)
		}
	}
	if len(spec.PerLayer) != len(layerUnits) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, harness %d", len(spec.PerLayer), len(layerUnits))
	}
	for i, m := range spec.PerLayer {
		if layerUnits[i].name != m.Name || layerUnits[i].unit != m.Unit {
			t.Errorf("per-layer %d: %s/%s in BENCHMARK.json, %s/%s in the harness", i, m.Name, m.Unit, layerUnits[i].name, layerUnits[i].unit)
		}
	}
	computed := newTracer().layerMetrics()
	if len(computed) != len(layerUnits) {
		t.Errorf("layerMetrics computes %d metrics, layerUnits lists %d", len(computed), len(layerUnits))
	}
	for _, l := range layerUnits {
		if _, ok := computed[l.name]; !ok {
			t.Errorf("layerMetrics does not compute %s", l.name)
		}
	}
}
