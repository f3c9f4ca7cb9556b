package main

import (
	"strings"
	"testing"
)

// sampleOutput mixes suffixed (multi-core) and unsuffixed (GOMAXPROCS=1)
// result rows, with and without the -benchmem columns.
const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkDetectorMC-8     	     100	    120000 ns/op	   48000 B/op	      90 allocs/op
BenchmarkDetectorHC-8     	     100	    200000 ns/op	   12345 B/op	      60 allocs/op
BenchmarkDetectorME      	     100	    113309.5 ns/op
BenchmarkEvaluateParallel/workers-1-8         	       5	 151226584 ns/op
BenchmarkEvaluateParallel/workers-8-8         	       5	 155542816 ns/op
PASS
ok  	repro	12.345s
`

// singleCoreOutput is what a GOMAXPROCS=1 run emits: no -N suffix, so the
// sub-benchmark's own -1 must survive lookup untouched.
const singleCoreOutput = `BenchmarkDetectorHC                	       1	     45418 ns/op	    2400 B/op	      10 allocs/op
BenchmarkEvaluateParallel/workers-1                 	       1	  44297175 ns/op
BenchmarkEvaluateParallel/workers-1#01              	       1	  44414657 ns/op
`

func intPtr(v int64) *int64 { return &v }

func parse(t *testing.T, out string) benchResults {
	t.Helper()
	results, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func TestParseBenchLookup(t *testing.T) {
	results := parse(t, sampleOutput)
	tests := []struct {
		name   string
		ns     float64
		allocs int64
		has    bool
	}{
		{"BenchmarkDetectorMC", 120000, 90, true},
		{"BenchmarkDetectorHC", 200000, 60, true},
		{"BenchmarkDetectorME", 113309.5, 0, false}, // no -benchmem columns, no -N suffix
		{"BenchmarkEvaluateParallel/workers-1", 151226584, 0, false},
		{"BenchmarkEvaluateParallel/workers-8", 155542816, 0, false},
	}
	if len(results.raw) != len(tests) {
		t.Errorf("parsed %d results, want %d: %v", len(results.raw), len(tests), results.raw)
	}
	for _, tt := range tests {
		got, ok := results.lookup(tt.name)
		if !ok {
			t.Errorf("missing %s", tt.name)
			continue
		}
		if got.nsPerOp != tt.ns || got.allocsPerOp != tt.allocs || got.hasAllocs != tt.has {
			t.Errorf("%s = %+v, want ns=%v allocs=%v has=%v", tt.name, got, tt.ns, tt.allocs, tt.has)
		}
	}
}

func TestLookupSingleCoreNamesKeepTrailingDigits(t *testing.T) {
	results := parse(t, singleCoreOutput)
	got, ok := results.lookup("BenchmarkEvaluateParallel/workers-1")
	if !ok || got.nsPerOp != 44297175 {
		t.Errorf("workers-1 lookup = %+v, %v; want the raw unsuffixed row", got, ok)
	}
	if hc, ok := results.lookup("BenchmarkDetectorHC"); !ok || hc.allocsPerOp != 10 {
		t.Errorf("DetectorHC lookup = %+v, %v", hc, ok)
	}
}

func defaultTol() tolerances {
	return tolerances{nsTol: 0.50, allocTol: 0.25, allocSlack: 16}
}

func TestCompareAllocRegressionFails(t *testing.T) {
	base := baselineFile{Benchmarks: map[string]baselineEntry{
		"BenchmarkDetectorMC": {NsPerOp: 120000, AllocsPerOp: intPtr(10)}, // limit 10*1.25+16 = 28 < 90
	}}
	var buf strings.Builder
	if !compare(&buf, "test.json", base, parse(t, sampleOutput), defaultTol()) {
		t.Fatalf("expected failure, got:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "FAIL") || !strings.Contains(buf.String(), "90 allocs/op") {
		t.Errorf("unexpected report:\n%s", buf.String())
	}
}

func TestCompareAllocWithinToleranceOK(t *testing.T) {
	base := baselineFile{Benchmarks: map[string]baselineEntry{
		"BenchmarkDetectorMC": {NsPerOp: 120000, AllocsPerOp: intPtr(80)}, // limit 80*1.25+16 = 116 ≥ 90
	}}
	var buf strings.Builder
	if compare(&buf, "test.json", base, parse(t, sampleOutput), defaultTol()) {
		t.Fatalf("unexpected failure:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "ok") {
		t.Errorf("unexpected report:\n%s", buf.String())
	}
}

func TestCompareNsRegressionOnlyWarns(t *testing.T) {
	base := baselineFile{Benchmarks: map[string]baselineEntry{
		"BenchmarkDetectorHC": {NsPerOp: 1000, AllocsPerOp: intPtr(60)}, // 200000 ns ≫ 1000, allocs exact
	}}
	var buf strings.Builder
	if compare(&buf, "test.json", base, parse(t, sampleOutput), defaultTol()) {
		t.Fatalf("ns/op regression must not fail:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "WARN") {
		t.Errorf("expected WARN:\n%s", buf.String())
	}
}

func TestCompareMissingBenchmarkSkips(t *testing.T) {
	base := baselineFile{Benchmarks: map[string]baselineEntry{
		"BenchmarkEvaluateParallel/workers-GOMAXPROCS": {NsPerOp: 155542816}, // key only matches on 1-core recordings
		"BenchmarkNotRun": {NsPerOp: 1, AllocsPerOp: intPtr(1)},
	}}
	var buf strings.Builder
	if compare(&buf, "test.json", base, parse(t, sampleOutput), defaultTol()) {
		t.Fatalf("missing benchmarks must not fail:\n%s", buf.String())
	}
	if got := strings.Count(buf.String(), "skip"); got != 2 {
		t.Errorf("want 2 skips, got %d:\n%s", got, buf.String())
	}
}

func TestCompareMissingAllocColumnFails(t *testing.T) {
	// Baseline pins allocs but the run lacked -benchmem: fail loudly rather
	// than silently passing the alloc gate.
	base := baselineFile{Benchmarks: map[string]baselineEntry{
		"BenchmarkDetectorME": {NsPerOp: 113310, AllocsPerOp: intPtr(5)},
	}}
	var buf strings.Builder
	if !compare(&buf, "test.json", base, parse(t, sampleOutput), defaultTol()) {
		t.Fatalf("expected failure:\n%s", buf.String())
	}
}

func TestCompareNsOnlyBaselineNeverFails(t *testing.T) {
	// Engine baselines record ns/op only; even a huge slowdown just warns.
	base := baselineFile{Benchmarks: map[string]baselineEntry{
		"BenchmarkEvaluateParallel/workers-1": {NsPerOp: 10},
	}}
	var buf strings.Builder
	if compare(&buf, "test.json", base, parse(t, sampleOutput), defaultTol()) {
		t.Fatalf("ns-only baseline must not fail:\n%s", buf.String())
	}
}

// TestCompareBytesGate: a baseline's bytes_per_op is hard-gated like
// allocs/op, under the same tolerance and slack, and fails loudly when the
// run has no B/op column.
func TestCompareBytesGate(t *testing.T) {
	tests := []struct {
		name  string
		entry baselineEntry
		input string
		fail  bool
		want  string
	}{
		// MC measured 48000 B/op and 90 allocs/op.
		{"within tolerance", baselineEntry{NsPerOp: 120000, AllocsPerOp: intPtr(90), BytesPerOp: intPtr(40000)}, sampleOutput, false, "48000 B/op (baseline 40000)"}, // limit 40000*1.25+16
		{"regression", baselineEntry{NsPerOp: 120000, AllocsPerOp: intPtr(90), BytesPerOp: intPtr(30000)}, sampleOutput, true, "48000 B/op exceeds baseline 30000 (limit 37516)"},
		{"allocs and bytes both regress", baselineEntry{NsPerOp: 120000, AllocsPerOp: intPtr(10), BytesPerOp: intPtr(30000)}, sampleOutput, true, "90 allocs/op exceeds baseline 10 (limit 28); 48000 B/op exceeds"},
		{"bytes only", baselineEntry{NsPerOp: 120000, BytesPerOp: intPtr(30000)}, sampleOutput, true, "48000 B/op exceeds"},
		{"no B/op column", baselineEntry{NsPerOp: 120000, BytesPerOp: intPtr(48000)}, "BenchmarkDetectorMC-8   100   120000 ns/op\n", true, "baseline records B/op but bench output has none"},
	}
	for _, tt := range tests {
		base := baselineFile{Benchmarks: map[string]baselineEntry{"BenchmarkDetectorMC": tt.entry}}
		var buf strings.Builder
		if got := compare(&buf, "test.json", base, parse(t, tt.input), defaultTol()); got != tt.fail {
			t.Errorf("%s: failed = %v, want %v:\n%s", tt.name, got, tt.fail, buf.String())
		}
		if !strings.Contains(buf.String(), tt.want) {
			t.Errorf("%s: report lacks %q:\n%s", tt.name, tt.want, buf.String())
		}
	}
}
