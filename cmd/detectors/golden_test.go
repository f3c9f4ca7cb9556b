package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestRunDemoGolden pins `detectors -demo -v -curves FILE` byte for byte:
// the full stdout must equal testdata/demo_verbose.golden and the curves
// CSV testdata/demo_verbose_curves.csv.golden. A change to any detector,
// to the fusion or to the report format fails here. Regenerate both only
// for an intended behaviour change:
//
//	go run ./cmd/detectors -demo -v -curves cmd/detectors/testdata/demo_verbose_curves.csv.golden > cmd/detectors/testdata/demo_verbose.golden
func TestRunDemoGolden(t *testing.T) {
	path := t.TempDir() + "/curves.csv"
	var buf bytes.Buffer
	if err := run(&buf, "", true, true, path); err != nil {
		t.Fatal(err)
	}
	csv, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "testdata/demo_verbose.golden", buf.String())
	compareGolden(t, "testdata/demo_verbose_curves.csv.golden", string(csv))
}

// compareGolden fails t at the first line where got differs from the
// golden file.
func compareGolden(t *testing.T, golden, got string) {
	t.Helper()
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines := strings.Split(got, "\n")
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
			t.Fatalf("%s differs at line %d:\n got: %q\nwant: %q", golden, i+1, g, w)
		}
	}
}
