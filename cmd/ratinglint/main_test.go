package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestRepoIsClean is the enforcement test behind the CI lint job: the
// whole repository must produce zero findings from the invariant analyzer
// suite. A failure here means either a genuine invariant violation was
// introduced or an intentional exception is missing its //lint: annotation
// (with rationale) — both are things to fix in the code, not here.
func TestRepoIsClean(t *testing.T) {
	diags, err := lint.Run("../..", []string{"./..."}, lint.All())
	if err != nil {
		t.Fatalf("lint run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Fatalf("ratinglint found %d finding(s); fix them or annotate with a rationale (see DESIGN.md §9)", len(diags))
	}
}

// TestSuppressionsAreFresh is the enforcement test behind `ratinglint
// -audit`: every //lint: directive in the repo must carry a rationale, use
// a known verb, and still suppress something. A stale directive is an
// exception that outlived the code it excused.
func TestSuppressionsAreFresh(t *testing.T) {
	diags, err := lint.Audit("../..", []string{"./..."}, lint.All())
	if err != nil {
		t.Fatalf("lint audit: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestFixturesAreDirty guards against the suite silently passing because
// the analyzers stopped reporting anything at all: every analyzer's
// testdata fixtures must keep producing findings from that analyzer.
func TestFixturesAreDirty(t *testing.T) {
	fixtures := map[string][]string{
		"ctxfirst":    {"./internal/lint/testdata/ctxfirst/..."},
		"detmaprange": {"./internal/lint/testdata/detmaprange/..."},
		"durataint":   {"./internal/lint/testdata/durataint/..."},
		"floateq":     {"./internal/lint/testdata/floateq"},
		"hotalloc":    {"./internal/lint/testdata/hotalloc/..."},
		"lockheld":    {"./internal/lint/testdata/lockheld/..."},
		"lockorder":   {"./internal/lint/testdata/lockorder/..."},
		"nowall":      {"./internal/lint/testdata/nowall/..."},
	}
	for analyzer, patterns := range fixtures {
		diags, err := lint.Run("../..", patterns, lint.All())
		if err != nil {
			t.Fatalf("lint run over %s fixtures: %v", analyzer, err)
		}
		found := false
		for _, d := range diags {
			if d.Analyzer == analyzer {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s fixtures produced no %s findings; the analyzer is broken", analyzer, analyzer)
		}
	}
}

// TestJSONOutput pins the machine-readable finding shape the CI annotation
// step consumes.
func TestJSONOutput(t *testing.T) {
	out, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if err := os.Chdir("../.."); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(filepath.Join("cmd", "ratinglint")); err != nil {
			t.Fatal(err)
		}
	}()
	code := run([]string{"-json", "./internal/lint/testdata/floateq"}, out, os.Stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (dirty fixture)", code)
	}
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	var findings []struct {
		File        string `json:"file"`
		Line        int    `json:"line"`
		Column      int    `json:"column"`
		Analyzer    string `json:"analyzer"`
		Message     string `json:"message"`
		Suppression string `json:"suppression"`
	}
	if err := json.Unmarshal(data, &findings); err != nil {
		t.Fatalf("output is not a JSON finding array: %v\n%s", err, data)
	}
	if len(findings) == 0 {
		t.Fatal("no findings in JSON output for a dirty fixture")
	}
	for _, f := range findings {
		if f.File == "" || f.Line == 0 || f.Analyzer == "" || f.Message == "" {
			t.Errorf("incomplete finding: %+v", f)
		}
		if f.Analyzer != "audit" && !strings.HasPrefix(f.Suppression, "//lint:ignore "+f.Analyzer) {
			t.Errorf("finding suppression %q does not name its analyzer %q", f.Suppression, f.Analyzer)
		}
	}
}
