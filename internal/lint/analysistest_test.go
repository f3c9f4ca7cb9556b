package lint

// The fixture runner is a stdlib analysistest: each testdata package is
// loaded through the production loader (go list + export data + source
// type-check), the analyzer under test runs through the production
// suppression pipeline, and the resulting diagnostics are matched against
// `// want "regexp"` comments on the expected lines. Unmatched diagnostics
// and unsatisfied expectations both fail, so every fixture proves both the
// flagged and the allowed patterns.

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	wantMarker = regexp.MustCompile(`// want (.*)$`)
	wantQuoted = regexp.MustCompile(`"([^"]*)"`)
)

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// runFixture loads ./testdata/<dir> for each dir (explicit paths: the Go
// tool will not expand wildcards into testdata) and checks a single
// analyzer's diagnostics against the fixtures' want comments.
func runFixture(t *testing.T, a *Analyzer, dirs ...string) {
	t.Helper()
	patterns := make([]string, len(dirs))
	for i, d := range dirs {
		patterns[i] = "./testdata/" + d
	}
	pkgs, err := Load(".", patterns...)
	if err != nil {
		t.Fatalf("load fixtures: %v", err)
	}
	if len(pkgs) != len(dirs) {
		t.Fatalf("loaded %d packages for %d fixture dirs", len(pkgs), len(dirs))
	}
	diags, _, err := runAnalyzers(pkgs, []*Analyzer{a})
	if err != nil {
		t.Fatalf("run %s: %v", a.Name, err)
	}

	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatalf("read fixture: %v", err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				m := wantMarker.FindStringSubmatch(line)
				if m == nil {
					continue
				}
				qs := wantQuoted.FindAllStringSubmatch(m[1], -1)
				if len(qs) == 0 {
					t.Fatalf("%s:%d: malformed want comment %q", name, i+1, line)
				}
				for _, q := range qs {
					re, err := regexp.Compile(q[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", name, i+1, q[1], err)
					}
					wants = append(wants, &expectation{file: name, line: i + 1, re: re})
				}
			}
		}
	}

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

func TestCtxFirst(t *testing.T) {
	runFixture(t, CtxFirst, "ctxfirst/internal/server")
}

func TestDetMapRange(t *testing.T) {
	runFixture(t, DetMapRange, "detmaprange/internal/engine", "detmaprange/plain")
}

func TestFloatEq(t *testing.T) {
	runFixture(t, FloatEq, "floateq")
}

func TestLockHeld(t *testing.T) {
	runFixture(t, LockHeld, "lockheld/internal/server", "lockheld/internal/store")
}

func TestDuraTaint(t *testing.T) {
	runFixture(t, DuraTaint, "durataint/internal/store")
}

// TestWALErr pins durataint's depth-0 rule: a direct call on the WAL
// surface whose error result is dropped.
func TestWALErr(t *testing.T) {
	runFixture(t, DuraTaint, "durataint/walsurface")
}

func TestHotAlloc(t *testing.T) {
	runFixture(t, HotAlloc, "hotalloc/internal/detect")
}

func TestLockOrder(t *testing.T) {
	runFixture(t, LockOrder,
		"lockorder/internal/server",
		"lockorder/internal/store",
		"lockorder/internal/trust")
}

func TestNoWall(t *testing.T) {
	runFixture(t, NoWall, "nowall/internal/stats", "nowall/plain")
}
