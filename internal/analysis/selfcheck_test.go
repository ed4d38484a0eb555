package analysis_test

import (
	"os"
	"path/filepath"
	"testing"

	"rmp/internal/analysis"
	"rmp/internal/analysis/errwrap"
	"rmp/internal/analysis/goleak"
	"rmp/internal/analysis/load"
	"rmp/internal/analysis/lockcheck"
	"rmp/internal/analysis/lockgraph"
	"rmp/internal/analysis/wireswitch"
)

// TestRepoClean runs every rmpvet analyzer over the repository itself
// and requires zero findings: the invariants the analyzers encode are
// not aspirational, the tree actually satisfies them. A regression
// here means either a real bug (fix the code) or a new intentional
// exception (annotate it with rmpvet:allow / rmpvet:holds and a
// reason).
func TestRepoClean(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, fset, err := load.Packages(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	analyzers := []*analysis.Analyzer{
		lockcheck.Analyzer,
		wireswitch.Analyzer,
		errwrap.Analyzer,
	}
	for _, pkg := range pkgs {
		diags, err := analysis.Run(analyzers, fset, pkg.Files, pkg.Pkg, pkg.Info)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}

	// The whole-program passes see every package at once: lock-order
	// cycles and goroutine ownership cross package boundaries.
	units := make([]*analysis.Unit, len(pkgs))
	for i, pkg := range pkgs {
		units[i] = &analysis.Unit{ImportPath: pkg.ImportPath, Files: pkg.Files, Pkg: pkg.Pkg, Info: pkg.Info}
	}
	diags, err := analysis.RunProgram([]*analysis.ProgramAnalyzer{
		lockgraph.Analyzer,
		goleak.Analyzer,
	}, fset, units)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}
