package lint

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func TestPathHasSegments(t *testing.T) {
	tests := []struct {
		path, want string
		ok         bool
	}{
		{"repro/internal/engine", "internal/engine", true},
		{"repro/internal/lint/testdata/x/internal/engine", "internal/engine", true},
		{"internal/engine", "internal/engine", true},
		{"repro/internal/engineroom", "internal/engine", false},
		{"repro/myinternal/engine", "internal/engine", false},
		{"repro/internal", "internal/engine", false},
		{"", "internal/engine", false},
	}
	for _, tt := range tests {
		if got := pathHasSegments(tt.path, tt.want); got != tt.ok {
			t.Errorf("pathHasSegments(%q, %q) = %v, want %v", tt.path, tt.want, got, tt.ok)
		}
	}
}

func TestAllAnalyzers(t *testing.T) {
	names := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %+v is incomplete", a)
		}
		if (a.Run == nil) == (a.RunProgram == nil) {
			t.Errorf("analyzer %q must set exactly one of Run and RunProgram", a.Name)
		}
		if names[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
	}
	for _, want := range []string{"ctxfirst", "detmaprange", "durataint", "floateq", "hotalloc", "lockheld", "lockorder", "nowall"} {
		if !names[want] {
			t.Errorf("analyzer %q missing from All()", want)
		}
	}
}

func TestParseDirectives(t *testing.T) {
	src := `package p

//lint:ignore floateq bit-exact sentinel
var a int

//lint:orderindependent commutative fold
var b int

//lint:ignore walerr
var c int

// plain comment, not a directive
var d int
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	ds := parseDirectives(fset, f)
	if len(ds) != 3 {
		t.Fatalf("got %d directives, want 3: %+v", len(ds), ds)
	}
	if ds[0].verb != "ignore" || ds[0].analyzer != "floateq" || ds[0].rationale != "bit-exact sentinel" {
		t.Errorf("directive 0 = %+v", ds[0])
	}
	if !ds[0].matches("floateq") || ds[0].matches("walerr") {
		t.Errorf("ignore directive match logic wrong: %+v", ds[0])
	}
	if ds[1].verb != "orderindependent" || !ds[1].matches("detmaprange") || ds[1].matches("floateq") {
		t.Errorf("directive 1 = %+v", ds[1])
	}
	if ds[2].rationale != "" {
		t.Errorf("directive 2 should have empty rationale: %+v", ds[2])
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Analyzer: "floateq",
		Pos:      token.Position{Filename: "x.go", Line: 3, Column: 7},
		Message:  "float comparison",
	}
	got := d.String()
	if !strings.Contains(got, "x.go:3:7") || !strings.Contains(got, "[floateq]") {
		t.Errorf("Diagnostic.String() = %q", got)
	}
}
