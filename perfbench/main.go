// Command perfbench is the repository's end-to-end benchmark. It serves
// the production stack (resilience.Admission → server.Handler on a
// durable, sharded P-scheme service with metrics) over loopback HTTP in
// this process and drives it with two closed-loop clients replaying fair
// ratings from dataset.GenerateFair plus the challenge-shaped attack from
// core.Generator.
//
// Usage (from the repository root; run.py builds and runs this package):
//
//	python3 perfbench/run.py --workload ingest|live|restart --seed N --seconds S --trace 0|1
//
// Every workload is a fixed operation program whose length depends only on
// --seconds. The last line of standard output is one JSON object with
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. A traced run first runs
// the program untraced, then traced, prints a layer table and the tracing
// overhead, and reports the traced pass's layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/dataset"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: ingest, live or restart")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "nominal run length; sets the fixed number of rounds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	code, err := run(os.Stdout, *workload, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// run executes one benchmark run and prints its report and result line.
// It returns 0 on a correct run, 1 when the correctness check failed (the
// result line says correct=false) and 2 when the run could not complete
// (no result line).
func run(out io.Writer, name string, seed uint64, seconds int, traced bool) (int, error) {
	w, ok := workloads[name]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q (want ingest, live or restart)", name)
	}
	if seconds < 1 {
		return 2, fmt.Errorf("--seconds must be at least 1")
	}
	rounds := w.rounds(seconds)
	b, err := newBench(out, w, seed, rounds)
	if err != nil {
		return 2, err
	}
	defer b.lb.close()
	fmt.Fprintf(out, "workload %s, seed %d: %d rounds, each on its own dataset drawn from the seed\n", name, seed, rounds)

	p, err := b.run(nil)
	if err != nil {
		return 2, err
	}
	e2e := endToEnd(w, p)
	printMetrics(out, "end-to-end", e2e)
	res := result{Correct: p.err == nil, Attempted: p.attempted, Failed: p.failed, Metrics: e2e}
	fmt.Fprintf(out, "latency samples: %d (%s)\n", len(p.headline), w.what)
	if w.kind != restart {
		fmt.Fprintf(out, "manipulation power of the served table against the fair-only baseline (round 0): %.4f\n", p.mp)
	}

	if traced {
		tr := newTracer()
		tp, err := b.run(tr)
		if err != nil {
			return 2, err
		}
		tr.layerTable(out, name)
		fmt.Fprintln(out, "tracing overhead (traced minus untraced):")
		te := endToEnd(w, tp)
		for _, k := range sortedKeys(e2e) {
			fmt.Fprintf(out, "  %-18s %+.4f %s (%+.1f%%)\n", k, te[k].Value-e2e[k].Value, e2e[k].Unit,
				100*ratio(te[k].Value-e2e[k].Value, e2e[k].Value))
		}
		values := tr.layerMetrics()
		layers := make(map[string]metric, len(layerUnits))
		for _, l := range layerUnits {
			layers[l.name] = metric{Value: values[l.name], Unit: l.unit}
		}
		printMetrics(out, "per-layer", layers)
		if tp.err != nil && p.err == nil {
			p.err = tp.err
		}
		res = result{Correct: p.err == nil, Attempted: p.attempted + tp.attempted, Failed: p.failed + tp.failed, Metrics: layers}
	}
	if p.err != nil {
		fmt.Fprintln(out, "correctness check FAILED:", p.err)
	} else {
		fmt.Fprintln(out, "correctness check: served scores, reports and recovered counts match the reference")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 2, err
	}
	fmt.Fprintln(out, string(line))
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

// endToEnd summarizes a pass: medians over rounds (or reopens) for set-up,
// throughput, recovery, CPU and heap; percentiles over every latency
// sample of the workload's headline route.
func endToEnd(w workload, p *pass) map[string]metric {
	lat := p.headline
	return map[string]metric{
		"setup_s":          {median(p.setup), "s"},
		"throughput_ops_s": {median(p.tput), "1/s"},
		"latency_p50_ms":   {quantile(lat, 0.5), "ms"},
		"latency_p90_ms":   {quantile(lat, 0.9), "ms"},
		"recover_s":        {median(p.recover), "s"},
		"cpu_ms_per_op":    {median(p.cpuPerOp), "ms"},
		"heap_mb":          {median(p.heap), "MB"},
	}
}

func printMetrics(out io.Writer, title string, m map[string]metric) {
	fmt.Fprintf(out, "%s metrics:\n", title)
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(out, "  %-26s %12.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func ratingCount(d *dataset.Dataset) int {
	n := 0
	for _, p := range d.Products {
		n += len(p.Ratings)
	}
	return n
}
