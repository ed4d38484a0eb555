// Command rmpvet runs the repository's project-specific static
// analyzers over Go package patterns and exits non-zero when any
// invariant is violated. It is the mechanical enforcement of the
// pager's concurrency and protocol rules:
//
//	lockcheck  — "guarded by" fields only touched under their mutex
//	wireswitch — switches over wire.Type are exhaustive or defaulted
//	errwrap    — errors cross boundaries with %w, never %v/%s
//	lockgraph  — no lock-order cycles across the whole program; no
//	             unbounded channel wait or undeadlined network I/O
//	             reachable while a lock is held
//	goleak     — every goroutine is tied to an owner that Close/Stop
//	             provably cancels; no mixed atomic/plain field access
//	escapegate — //rmpvet:hotpath functions do not heap-allocate
//	             (compiler-verified; see -escapes)
//
// Usage:
//
//	rmpvet [-json] [packages]
//	rmpvet -escapes [-baseline file] [-json] [packages]
//
// Patterns default to ./... relative to the current directory. The
// first form runs the five syntax/type-driven analyzers (lockgraph
// and goleak see the whole program at once). The second form compiles
// the packages with -gcflags='-m -m' and fails if any function marked
// //rmpvet:hotpath heap-allocates, modulo the committed baseline.
//
// Diagnostics print in the go vet file:line:col style so editors and
// CI annotate them directly; -json switches to one JSON object per
// line ({"file","line","col","analyzer","message"}) for tooling.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"rmp/internal/analysis"
	"rmp/internal/analysis/errwrap"
	"rmp/internal/analysis/escapegate"
	"rmp/internal/analysis/goleak"
	"rmp/internal/analysis/load"
	"rmp/internal/analysis/lockcheck"
	"rmp/internal/analysis/lockgraph"
	"rmp/internal/analysis/wireswitch"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	jsonOut := flag.Bool("json", false,
		"emit one JSON diagnostic per line instead of file:line:col text")
	escapes := flag.Bool("escapes", false,
		"run the escapegate: compile with -gcflags='-m -m' and reject heap allocations in //rmpvet:hotpath functions")
	baseline := flag.String("baseline", escapegate.DefaultBaseline,
		"committed allow-list of reviewed hotpath escapes (with -escapes)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: rmpvet [flags] [packages]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := []*analysis.Analyzer{
		lockcheck.Analyzer,
		wireswitch.Analyzer,
		errwrap.Analyzer,
	}
	programAnalyzers := []*analysis.ProgramAnalyzer{
		lockgraph.Analyzer,
		goleak.Analyzer,
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		for _, a := range programAnalyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		fmt.Printf("%-12s %s\n", "escapegate", escapegate.Doc)
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dir, err := os.Getwd()
	if err != nil {
		fatal(err)
	}

	emit := func(d analysis.Diagnostic) {
		if *jsonOut {
			out, err := json.Marshal(struct {
				File     string `json:"file"`
				Line     int    `json:"line"`
				Col      int    `json:"col"`
				Analyzer string `json:"analyzer"`
				Message  string `json:"message"`
			}{d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message})
			if err != nil {
				fatal(err)
			}
			fmt.Println(string(out))
			return
		}
		fmt.Println(d)
	}

	if *escapes {
		diags, err := escapegate.Check(dir, patterns, *baseline)
		if err != nil {
			fatal(err)
		}
		for _, d := range diags {
			emit(d)
		}
		if len(diags) > 0 {
			os.Exit(1)
		}
		return
	}

	pkgs, fset, err := load.Packages(dir, patterns)
	if err != nil {
		fatal(err)
	}
	if len(pkgs) == 0 {
		fatal(fmt.Errorf("no packages matched %v", patterns))
	}

	exit := 0
	for _, pkg := range pkgs {
		diags, err := analysis.Run(analyzers, fset, pkg.Files, pkg.Pkg, pkg.Info)
		if err != nil {
			fatal(err)
		}
		for _, d := range diags {
			emit(d)
			exit = 1
		}
	}

	units := make([]*analysis.Unit, len(pkgs))
	for i, pkg := range pkgs {
		units[i] = &analysis.Unit{ImportPath: pkg.ImportPath, Files: pkg.Files, Pkg: pkg.Pkg, Info: pkg.Info}
	}
	diags, err := analysis.RunProgram(programAnalyzers, fset, units)
	if err != nil {
		fatal(err)
	}
	for _, d := range diags {
		emit(d)
		exit = 1
	}
	os.Exit(exit)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rmpvet:", err)
	os.Exit(2)
}
