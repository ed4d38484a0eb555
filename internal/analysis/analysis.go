// Package analysis is rmpvet's minimal static-analysis framework: a
// stdlib-only reimplementation of the golang.org/x/tools/go/analysis
// API shape (Analyzer, Pass, Diagnostic) sized for this repository.
// The x/tools module is deliberately not a dependency — the repo
// builds with the standard library alone — so the framework loads
// packages itself (see the load sub-package) and hands each analyzer
// a fully type-checked package.
//
// The analyzers under this package mechanically enforce the
// invariants the paper's reliability argument rests on but the Go
// compiler cannot see, one analyzer per invariant:
//
//   - lockcheck: fields documented "guarded by <mu>" are only touched
//     with that mutex held.
//   - wireswitch: every switch over wire.Type handles all opcodes or
//     has an explicit default, so new message types cannot be dropped
//     silently.
//   - errwrap: fmt.Errorf never flattens an error value with %v/%s —
//     sentinels like ErrReqTimeout must survive wrapping (%w) for the
//     retry/breaker fault classification to work.
//   - lockgraph (whole program): no lock-order cycle, and nothing that
//     can park forever — a channel wait with no timer, network I/O
//     with no wire deadline armed first — reachable under a mutex.
//   - goleak (whole program): every goroutine is tied to an owner
//     (ctx, stop channel, WaitGroup, closable connection) that a
//     shutdown method provably cancels, so components cannot leak
//     workers.
//
// Two source directives tune the analyzers:
//
//	//rmpvet:allow <analyzer>[,<analyzer>...] [reason]
//	    on (or immediately above) a line suppresses that analyzer's
//	    diagnostics for the line.
//	//rmpvet:holds <Type>.<mu>[, <Type>.<mu>...]
//	    in a function's (or its receiver type's) doc comment asserts
//	    the caller already holds the named lock; lockcheck and
//	    lockgraph treat the lock as held throughout the function (or
//	    every method).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// rmpvet:allow directives.
	Name string
	// Doc is a one-paragraph description (shown by rmpvet -help).
	Doc string
	// Run performs the check, reporting findings via pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// report receives diagnostics; installed by the driver.
	report func(Diagnostic)

	// allow maps filename -> set of lines carrying an
	// "rmpvet:allow <name>" directive for this analyzer (the
	// directive's own line and the line below it). Built lazily.
	allow map[string]map[int]bool
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos unless an rmpvet:allow directive
// suppresses this analyzer on that line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allowedAt(position) {
		return
	}
	p.report(Diagnostic{Pos: position, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// allowDirective matches "rmpvet:allow name1,name2 optional reason".
var allowDirective = regexp.MustCompile(`^//\s*rmpvet:allow\s+([\w,\s]+?)(?:\s+--.*)?$`)

// allowNames reports whether the comment text is an rmpvet:allow
// directive naming analyzer.
func allowNames(text, analyzer string) bool {
	m := allowDirective.FindStringSubmatch(text)
	if m == nil {
		return false
	}
	for _, n := range strings.FieldsFunc(m[1], func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
		if n == analyzer {
			return true
		}
	}
	return false
}

func (p *Pass) allowedAt(pos token.Position) bool {
	if p.allow == nil {
		p.allow = make(map[string]map[int]bool)
		collectAllows(p.Fset, p.Files, p.Analyzer.Name, p.allow)
	}
	return p.allow[pos.Filename][pos.Line]
}

// holdsDirective matches "rmpvet:holds Type.mu[, Type.mu...]".
var holdsDirective = regexp.MustCompile(`rmpvet:holds\s+([\w.,\s]+)`)

// HoldsFromDoc extracts the (TypeName, lockField) pairs asserted by
// rmpvet:holds directives in a doc comment. Each entry is returned as
// "Type.lock".
func HoldsFromDoc(doc *ast.CommentGroup) []string {
	if doc == nil {
		return nil
	}
	var out []string
	for _, c := range doc.List {
		m := holdsDirective.FindStringSubmatch(c.Text)
		if m == nil {
			continue
		}
		for _, part := range strings.Split(m[1], ",") {
			part = strings.TrimSpace(part)
			if part != "" && strings.Contains(part, ".") {
				out = append(out, part)
			}
		}
	}
	return out
}

// Run executes each analyzer over the package described by fset,
// files, pkg and info, returning all diagnostics sorted by position.
func Run(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    files,
			Pkg:      pkg,
			Info:     info,
			report:   func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Path(), err)
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
		return diags[i].Message < diags[j].Message
	})
	return diags, nil
}

// NamedType returns the named type (or nil) behind t, unwrapping
// pointers and aliases — the shape analyzers key lock ownership on.
func NamedType(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		case *types.Alias:
			t = types.Unalias(t)
		default:
			return nil
		}
	}
}

// Implements reports whether t (or *t) implements iface.
func Implements(t types.Type, iface *types.Interface) bool {
	if iface == nil || t == nil {
		return false
	}
	if types.Implements(t, iface) {
		return true
	}
	if _, ok := t.(*types.Pointer); !ok {
		return types.Implements(types.NewPointer(t), iface)
	}
	return false
}

// LookupIface finds the named interface type in an imported package
// (e.g. net.Conn) among pkg's direct and transitive imports. Returns
// nil when the package is not imported.
func LookupIface(pkg *types.Package, path, name string) *types.Interface {
	var find func(p *types.Package, seen map[*types.Package]bool) *types.Package
	find = func(p *types.Package, seen map[*types.Package]bool) *types.Package {
		if p == nil || seen[p] {
			return nil
		}
		seen[p] = true
		if p.Path() == path {
			return p
		}
		for _, imp := range p.Imports() {
			if found := find(imp, seen); found != nil {
				return found
			}
		}
		return nil
	}
	target := find(pkg, map[*types.Package]bool{})
	if target == nil {
		return nil
	}
	obj, ok := target.Scope().Lookup(name).(*types.TypeName)
	if !ok {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}
