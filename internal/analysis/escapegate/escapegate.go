// Package escapegate is the compiler-backed allocation gate for the
// paging fast path. Syntax-level analyzers cannot prove "this
// function does not heap-allocate" — escape analysis is a whole-
// compiler question — so the gate asks the compiler itself: it
// builds the packages under -gcflags='-m -m', parses the escape
// diagnostics, and fails if any lands inside a function marked
//
//	//rmpvet:hotpath
//
// in its doc comment. The hot path here is the 4 KB page-fault cycle
// the paper's numbers live and die by: RS parity arithmetic, frame
// encode into the mux batch writer, demux dispatch, and the hot-tier
// store accessors. One stray allocation per frame turns into GC
// pressure exactly when the pager is evicting because memory is
// scarce.
//
// Escapes that are inherent to an API (parsePayload handing the
// caller a decoded Host string) live in a committed, reviewed baseline
// file, one entry per line:
//
//	<funcname>: <compiler message>
//
// where funcname is the receiver-qualified name (e.g. (*Conn).
// dispatch) and the message is the compiler's text with positions
// stripped. '#' starts a comment. An escape in the baseline is
// tolerated; anything else fails the gate, and so does a baseline
// entry that no escape in the checked packages matches — a stale entry
// is an allowance nobody reviewed for the code as it now stands. (The
// baseline is one file for the whole tree: run the gate over ./..., or
// entries for the packages left out read as stale.)
// Adding a baseline entry is a reviewed act: the diff to the file is
// the review trail.
package escapegate

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"rmp/internal/analysis"
)

// Doc describes the gate for rmpvet -list.
const Doc = "compile with -gcflags='-m -m' and reject heap allocations in //rmpvet:hotpath functions (modulo the reviewed baseline)"

// DefaultBaseline is the committed allow-list path, relative to the
// directory rmpvet runs in.
const DefaultBaseline = ".rmpvet-escapes"

// hotFunc is one //rmpvet:hotpath-marked function body.
type hotFunc struct {
	name      string // receiver-qualified: (*Conn).dispatch, AppendFrame
	file      string // absolute path
	from, to  int    // body line range, inclusive
	importPat string
}

// escLine matches one compiler diagnostic: file:line:col: message.
var escLine = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// Check compiles the packages matching patterns under dir with
// -gcflags='-m -m' and returns a diagnostic for every heap escape
// inside a hotpath function that the baseline does not cover, and for
// every baseline entry that covers none.
func Check(dir string, patterns []string, baseline string) ([]analysis.Diagnostic, error) {
	hots, err := hotFuncs(dir, patterns)
	if err != nil {
		return nil, err
	}
	allowed, err := readBaseline(filepath.Join(dir, baseline))
	if err != nil {
		return nil, err
	}
	if len(hots) == 0 && len(allowed) == 0 {
		return nil, nil
	}

	args := append([]string{"build", "-gcflags=-m -m"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	runErr := cmd.Run()

	var diags []analysis.Diagnostic
	sawAny := false
	dup := map[string]bool{}
	used := map[string]bool{}
	for _, line := range strings.Split(out.String(), "\n") {
		m := escLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		sawAny = true
		// At -m -m the compiler prints each escape twice: once bare
		// and once with a trailing colon introducing the flow trace.
		msg := strings.TrimSuffix(m[4], ":")
		if !isHeapEscape(msg) {
			continue
		}
		if key := m[1] + ":" + m[2] + ":" + m[3] + ":" + msg; dup[key] {
			continue
		} else {
			dup[key] = true
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(dir, file)
		}
		lineNo := atoi(m[2])
		fn := enclosing(hots, file, lineNo)
		if fn == nil {
			continue
		}
		if entry := fn.name + ": " + msg; allowed[entry] > 0 {
			used[entry] = true
			continue
		}
		diags = append(diags, analysis.Diagnostic{
			Pos:      token.Position{Filename: m[1], Line: lineNo, Column: atoi(m[3])},
			Analyzer: "escapegate",
			Message: fmt.Sprintf("hotpath %s heap-allocates: %s (reviewed escapes belong in %s)",
				fn.name, msg, baseline),
		})
	}
	if runErr != nil && !sawAny {
		// The build itself failed (not just chatty diagnostics).
		return nil, fmt.Errorf("go build: %w\n%s", runErr, out.String())
	}
	for entry, line := range allowed {
		if !used[entry] {
			diags = append(diags, analysis.Diagnostic{
				Pos:      token.Position{Filename: baseline, Line: line},
				Analyzer: "escapegate",
				Message:  fmt.Sprintf("stale baseline entry %q matches no hotpath escape; delete it", entry),
			})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return diags, nil
}

// isHeapEscape recognizes the -m diagnostics that mean "this
// expression allocated on the heap": escapes and stack-to-heap
// moves, but not the negative "does not escape" notes.
func isHeapEscape(msg string) bool {
	if strings.Contains(msg, "does not escape") {
		return false
	}
	return strings.Contains(msg, "escapes to heap") || strings.Contains(msg, "moved to heap")
}

// hotFuncs parses the source of every package matching patterns and
// returns the //rmpvet:hotpath-marked function bodies.
func hotFuncs(dir string, patterns []string) ([]*hotFunc, error) {
	dirs, err := packageDirs(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var hots []*hotFunc
	for _, pdir := range dirs {
		entries, err := os.ReadDir(pdir)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			path := filepath.Join(pdir, e.Name())
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !isHotpath(fd.Doc) {
					continue
				}
				hots = append(hots, &hotFunc{
					name: funcName(fd),
					file: path,
					from: fset.Position(fd.Pos()).Line,
					to:   fset.Position(fd.Body.Rbrace).Line,
				})
			}
		}
	}
	return hots, nil
}

// isHotpath reports whether a doc comment carries the hotpath
// directive.
func isHotpath(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == "//rmpvet:hotpath" {
			return true
		}
	}
	return false
}

// funcName renders the receiver-qualified name used in baseline
// entries: AppendFrame, (*Conn).dispatch, (Code).K.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return "(" + typeText(fd.Recv.List[0].Type) + ")." + fd.Name.Name
}

// typeText renders a receiver type expression (*Conn, Code, P[T]).
func typeText(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.StarExpr:
		return "*" + typeText(v.X)
	case *ast.IndexExpr:
		return typeText(v.X)
	case *ast.IndexListExpr:
		return typeText(v.X)
	}
	return ""
}

// enclosing finds the hotpath function containing file:line.
func enclosing(hots []*hotFunc, file string, line int) *hotFunc {
	for _, h := range hots {
		if h.file == file && line >= h.from && line <= h.to {
			return h
		}
	}
	return nil
}

// packageDirs expands patterns to package directories via go list.
func packageDirs(dir string, patterns []string) ([]string, error) {
	args := append([]string{"list", "-e", "-f", "{{.Dir}}"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	var dirs []string
	for _, l := range strings.Split(string(out), "\n") {
		if l = strings.TrimSpace(l); l != "" {
			dirs = append(dirs, l)
		}
	}
	return dirs, nil
}

// readBaseline loads the reviewed allow-list as entry → line number
// (1-based); a missing file is an empty baseline.
func readBaseline(path string) (map[string]int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	allowed := map[string]int{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		allowed[line] = i + 1
	}
	return allowed, nil
}

func atoi(s string) int {
	n := 0
	for _, c := range s {
		n = n*10 + int(c-'0')
	}
	return n
}
