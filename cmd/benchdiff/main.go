// Command benchdiff compares `go test -bench` output against recorded
// baseline files (BENCH_detect.json, BENCH_engine.json) and exits nonzero
// when a benchmark regresses beyond tolerance.
//
// Allocation counts are deterministic for the serial detector kernels, so an
// allocs/op regression fails hard, and so does a B/op regression for a
// baseline that records bytes_per_op (a few large allocations can cost
// megabytes that an allocs/op gate cannot see). Both share -alloc-tol and
// -alloc-slack. Wall-clock ns/op is noisy on shared CI runners, so ns/op
// regressions only warn — the recorded numbers document the expected order
// of magnitude, not a hard gate.
//
// Usage:
//
//	go test -run=NONE -bench=. -benchtime=1x -benchmem ./... | \
//	    go run ./cmd/benchdiff -baseline BENCH_detect.json -baseline BENCH_engine.json
//
// Baselines whose benchmark is absent from the input are reported as skipped
// (the bench-smoke CI step runs every benchmark once, but a filtered local
// run compares only what it measured). Measured benchmarks without a
// baseline entry are ignored.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// baselineFile mirrors the BENCH_*.json layout.
type baselineFile struct {
	Comment     string                   `json:"comment"`
	Environment map[string]any           `json:"environment"`
	Benchmarks  map[string]baselineEntry `json:"benchmarks"`
	Ratios      map[string]float64       `json:"ratios"`
}

type baselineEntry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp *int64  `json:"allocs_per_op,omitempty"`
	BytesPerOp  *int64  `json:"bytes_per_op,omitempty"`
}

// measurement is one parsed benchmark result line.
type measurement struct {
	nsPerOp     float64
	allocsPerOp int64
	bytesPerOp  int64
	hasAllocs   bool // allocs/op and B/op columns (-benchmem or b.ReportAllocs)
}

// benchLine matches one `go test -bench` result row:
//
//	BenchmarkDetectorHC-8   100   546827 ns/op   98304 B/op   1224 allocs/op
//
// The B/op and allocs/op columns appear only under -benchmem.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.]+) ns/op(?:\s+([0-9.]+) B/op)?(?:\s+([0-9]+) allocs/op)?`)

// gomaxprocsSuffix is the `-N` the testing package appends to benchmark
// names when GOMAXPROCS != 1. Sub-benchmark names can themselves end in
// `-<digits>` (workers-1), and a GOMAXPROCS=1 run appends nothing, so the
// suffix cannot be stripped unconditionally: measurements are kept under
// their raw names and the stripped spelling is a fallback index only.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// benchResults holds parsed measurements under their raw benchmark names
// plus a fallback index with the trailing -GOMAXPROCS group removed.
type benchResults struct {
	raw      map[string]measurement
	stripped map[string]measurement
}

// lookup resolves a baseline name: an exact raw match wins (GOMAXPROCS=1
// output, where names carry no suffix and `workers-1` must not lose its
// `-1`); otherwise the stripped index covers suffixed multi-core output.
func (r benchResults) lookup(name string) (measurement, bool) {
	if m, ok := r.raw[name]; ok {
		return m, true
	}
	m, ok := r.stripped[name]
	return m, ok
}

// parseBench extracts benchmark measurements from `go test -bench` output.
func parseBench(r io.Reader) (benchResults, error) {
	results := benchResults{
		raw:      make(map[string]measurement),
		stripped: make(map[string]measurement),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return results, fmt.Errorf("line %q: %v", sc.Text(), err)
		}
		res := measurement{nsPerOp: ns}
		if m[3] != "" {
			bytes, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				return results, fmt.Errorf("line %q: %v", sc.Text(), err)
			}
			res.bytesPerOp = int64(bytes)
		}
		if m[4] != "" {
			allocs, err := strconv.ParseInt(m[4], 10, 64)
			if err != nil {
				return results, fmt.Errorf("line %q: %v", sc.Text(), err)
			}
			res.allocsPerOp = allocs
			res.hasAllocs = true
		}
		results.raw[m[1]] = res
		if s := gomaxprocsSuffix.ReplaceAllString(m[1], ""); s != m[1] {
			results.stripped[s] = res
		}
	}
	return results, sc.Err()
}

// tolerances bundles the comparison knobs.
type tolerances struct {
	nsTol      float64 // relative ns/op headroom before a warning
	allocTol   float64 // relative allocs/op and B/op headroom before failing
	allocSlack int64   // absolute allocs/op and B/op headroom on top of allocTol
}

// compare checks every baseline entry against the measured results, writing
// one line per entry to w. It returns true when any hard check failed.
func compare(w io.Writer, source string, base baselineFile, results benchResults, tol tolerances) bool {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	for _, name := range names {
		want := base.Benchmarks[name]
		got, ok := results.lookup(name)
		if !ok {
			fmt.Fprintf(w, "skip %-55s not in bench output\n", name)
			continue
		}
		status, detail := "ok  ", fmt.Sprintf("%.0f ns/op (baseline %.0f)", got.nsPerOp, want.NsPerOp)
		if nsLimit := want.NsPerOp * (1 + tol.nsTol); got.nsPerOp > nsLimit {
			status = "WARN"
			detail = fmt.Sprintf("%.0f ns/op exceeds baseline %.0f by more than %.0f%% (informational: ns/op is noisy on CI)",
				got.nsPerOp, want.NsPerOp, tol.nsTol*100)
		}
		var fails []string
		for _, g := range []struct {
			unit string
			want *int64
			got  int64
		}{{"allocs/op", want.AllocsPerOp, got.allocsPerOp}, {"B/op", want.BytesPerOp, got.bytesPerOp}} {
			if g.want == nil {
				continue
			}
			limit := int64(float64(*g.want)*(1+tol.allocTol)) + tol.allocSlack
			switch {
			case !got.hasAllocs:
				fails = append(fails, fmt.Sprintf("baseline records %s but bench output has none (run with -benchmem or b.ReportAllocs)", g.unit))
			case g.got > limit:
				fails = append(fails, fmt.Sprintf("%d %s exceeds baseline %d (limit %d)", g.got, g.unit, *g.want, limit))
			default:
				detail += fmt.Sprintf(", %d %s (baseline %d)", g.got, g.unit, *g.want)
			}
		}
		if len(fails) > 0 {
			status, detail, failed = "FAIL", strings.Join(fails, "; "), true
		}
		fmt.Fprintf(w, "%s %-55s %s [%s]\n", status, name, detail, source)
	}
	return failed
}

// stringList is a repeatable string flag.
type stringList []string

func (s *stringList) String() string { return fmt.Sprint(*s) }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	var baselines stringList
	flag.Var(&baselines, "baseline", "baseline JSON file (repeatable)")
	var (
		input      = flag.String("input", "-", "bench output file, or - for stdin")
		nsTol      = flag.Float64("ns-tol", 0.50, "relative ns/op headroom before warning")
		allocTol   = flag.Float64("alloc-tol", 0.25, "relative allocs/op headroom before failing")
		allocSlack = flag.Int64("alloc-slack", 16, "absolute allocs/op headroom on top of -alloc-tol")
	)
	flag.Parse()
	if len(baselines) == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: at least one -baseline is required")
		os.Exit(2)
	}

	in := os.Stdin
	if *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		defer f.Close()
		in = f
	}
	results, err := parseBench(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	tol := tolerances{nsTol: *nsTol, allocTol: *allocTol, allocSlack: *allocSlack}
	failed := false
	for _, path := range baselines {
		raw, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		var base baselineFile
		if err := json.Unmarshal(raw, &base); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %s: %v\n", path, err)
			os.Exit(2)
		}
		if compare(os.Stdout, path, base, results, tol) {
			failed = true
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchdiff: allocation or memory regression detected")
		os.Exit(1)
	}
}
