package reference_test

import (
	"context"
	"fmt"
	"go/build"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/challenge"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/reference"
	"repro/internal/stats"
)

// requireMatchesEngine evaluates d with the engine twice, cold on a fresh
// state and then resumed on a recopied view (every series a new header
// with the same content, so the final pass runs with every memo entry
// dropped), and requires both to equal the reference bit for bit.
func requireMatchesEngine(t *testing.T, label string, d *dataset.Dataset) {
	t.Helper()
	cfg := detect.DefaultConfig()
	want := reference.Evaluate(d, cfg)
	st := engine.NewState()
	for _, view := range []*dataset.Dataset{d, d.Clone()} {
		got, err := engine.New(cfg).Resume(context.Background(), st, view)
		if err != nil {
			t.Fatal(err)
		}
		if err := want.Diff(got); err != nil {
			t.Fatalf("%s, recopied %t: engine differs from the reference: %v", label, view != d, err)
		}
	}
}

// TestEvaluateMatchesEngine: the straight-line reference and the engine
// agree on table, marks, final trust and the causal Published table, on
// the datasets of `benchfig -quick`, on seeded attacked datasets with a
// partial last period, and on a slice of the challenge population at the
// paper's scale.
func TestEvaluateMatchesEngine(t *testing.T) {
	lab, err := experiments.NewLab(experiments.QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	requireMatchesEngine(t, "benchfig -quick fair", lab.Challenge.Fair)
	for _, sub := range lab.Submissions[:4] {
		d, err := sub.Attack.Apply(lab.Challenge.Fair)
		if err != nil {
			t.Fatal(err)
		}
		requireMatchesEngine(t, fmt.Sprintf("benchfig -quick submission %d", sub.ID), d)
	}
	for seed := uint64(1); seed <= 6; seed++ {
		d, err := reference.AttackedData(seed)
		if err != nil {
			t.Fatal(err)
		}
		requireMatchesEngine(t, fmt.Sprintf("attacked seed %d", seed), d)
	}
	c, err := challenge.New(challenge.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	subs, err := challenge.GeneratePopulation(stats.NewRNG(3), c, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range subs {
		d, err := sub.Attack.Apply(c.Fair)
		if err != nil {
			t.Fatal(err)
		}
		requireMatchesEngine(t, fmt.Sprintf("challenge submission %d (%v)", sub.ID, sub.Strategy), d)
	}
}

// TestOnlyTestsImport: no package of the repo but this one imports it
// from a non-test file, so the reference is never linked into a binary.
func TestOnlyTestsImport(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs := 0
	err = filepath.WalkDir(root, func(dir string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		if e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".") && dir != root {
			return filepath.SkipDir
		}
		pkg, err := build.ImportDir(dir, 0)
		if err != nil || dir == filepath.Join(root, "internal", "reference") {
			return nil // no Go files, or this package
		}
		pkgs++
		if slices.Contains(pkg.Imports, "repro/internal/reference") {
			t.Errorf("%s imports internal/reference from a non-test file", dir)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if pkgs < 20 {
		t.Fatalf("found only %d packages under %s; the walk lost its root", pkgs, root)
	}
}
