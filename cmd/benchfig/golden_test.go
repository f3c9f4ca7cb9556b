package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestFiguresAllQuickGolden pins the paper's figures: `benchfig -fig all
// -quick` (default seed) must reproduce testdata/figures_all_quick.golden
// byte for byte, ignoring only the wall-clock "# done in" line. Any change
// to the detectors, the trust fold or the aggregation that moves a single
// printed digit fails here. Regenerate the golden only for an intended
// behaviour change:
//
//	go run ./cmd/benchfig -fig all -quick | grep -v '^# done in ' > cmd/benchfig/testdata/figures_all_quick.golden
func TestFiguresAllQuickGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep in -short mode")
	}
	want, err := os.ReadFile("testdata/figures_all_quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, "all", true, 42, 0, false); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		if !strings.HasPrefix(line, "# done in ") {
			got.WriteString(line)
		}
	}
	if got.String() == string(want) {
		return
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("figures differ from the golden at line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}
