// Package lifecycle checks that goroutines cannot leak: any `go`
// statement whose body runs an unbounded loop must have a visible
// cancellation path. Accepted evidence, in the spirit of the
// codebase's conventions:
//
//   - a receive from (or select on) a non-ticker channel — the
//     stop/kick/done channel pattern;
//   - a read of a boolean field or method whose name signals
//     shutdown (closed, draining, stopped, ...);
//   - use of a context.Context (ctx.Done() et al.);
//   - blocking on Accept/Read of a net.Listener/net.Conn — closing
//     the connection is the cancellation, which is how every
//     session, relay, and accept loop here shuts down.
//
// Straight-line goroutines (no loop) terminate by themselves and
// pass. When the go statement calls a named function, that function's
// body is inspected if it is declared in the same package; calls into
// other packages are assumed bounded.
//
// Why this matters here: the pager spawns heartbeat probers, a
// rebalance ticker, a registry watcher, and a re-protection worker;
// the server spawns a session per connection. A worker with no stop
// path outlives Close, keeps a *Pager alive, and — worse — keeps
// mutating shared state during shutdown. PR 1's background workers
// all follow the stop-channel discipline; this analyzer keeps it that
// way.
package lifecycle

import (
	"go/ast"
	"go/types"
	"regexp"

	"rmp/internal/analysis"
)

// Analyzer is the lifecycle check with default settings.
var Analyzer = NewAnalyzer(false)

// NewAnalyzer builds the lifecycle check. With requireRecover, every
// goroutine body must also install a deferred recover handler —
// stricter than this repo's convention (a paging daemon should crash
// loudly, not swallow panics), so rmpvet gates it behind
// -strict-lifecycle.
func NewAnalyzer(requireRecover bool) *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "lifecycle",
		Doc:  "goroutines running unbounded loops must be cancellable (ctx, stop channel, closed flag, or closable conn)",
	}
	a.Run = func(pass *analysis.Pass) error {
		return run(pass, a, requireRecover)
	}
	return a
}

// shutdownName matches identifiers whose read signals a shutdown
// check (fields, methods, channels).
var shutdownName = regexp.MustCompile(`(?i)^(stop|stopped|stopping|done|quit|exit|halt|shutdown|shutting|closed|closing|drain|draining|cancel|cancelled|canceled|kill)`)

func run(pass *analysis.Pass, a *analysis.Analyzer, requireRecover bool) error {
	// Index this package's function declarations so `go s.loop()` can
	// be traced into loop's body.
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
					decls[obj] = fd
				}
			}
		}
	}
	netConn := analysis.LookupIface(pass.Pkg, "net", "Conn")
	listener := analysis.LookupIface(pass.Pkg, "net", "Listener")

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			body := goBody(pass, gs, decls)
			if body == nil {
				return true // callee in another package; assume bounded
			}
			if requireRecover && !hasRecover(body) {
				pass.Reportf(gs.Pos(), "goroutine has no deferred recover handler")
			}
			if !hasLoop(body) {
				return true // straight-line goroutine; terminates by itself
			}
			if cancellable(pass, body, netConn, listener) {
				return true
			}
			pass.Reportf(gs.Pos(), "goroutine runs an unbounded loop with no cancellation path (ctx, stop channel, closed flag, or closable conn)")
			return true
		})
	}
	return nil
}

// goBody resolves the statement list a go statement executes: the
// function literal's body, or the body of a same-package named
// function/method.
func goBody(pass *analysis.Pass, gs *ast.GoStmt, decls map[*types.Func]*ast.FuncDecl) *ast.BlockStmt {
	switch fun := gs.Call.Fun.(type) {
	case *ast.FuncLit:
		return fun.Body
	case *ast.Ident:
		if obj, ok := pass.Info.Uses[fun].(*types.Func); ok {
			if fd := decls[obj]; fd != nil {
				return fd.Body
			}
		}
	case *ast.SelectorExpr:
		if obj, ok := pass.Info.Uses[fun.Sel].(*types.Func); ok {
			if fd := decls[obj]; fd != nil {
				return fd.Body
			}
		}
	}
	return nil
}

// hasLoop reports whether body contains any for/range statement,
// not descending into nested function literals (their goroutines are
// analyzed at their own go statements; inline closures with loops
// still count via ast.Inspect... they run on this goroutine).
func hasLoop(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			found = true
		}
		return !found
	})
	return found
}

// hasRecover reports whether body installs a deferred recover: either
// `defer func() { ... recover() ... }()` or a deferred call to a
// function whose name mentions recover.
func hasRecover(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return !found
		}
		switch fun := d.Call.Fun.(type) {
		case *ast.FuncLit:
			ast.Inspect(fun.Body, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "recover" {
						found = true
					}
				}
				return !found
			})
		case *ast.Ident:
			if shutdownOrRecoverName(fun.Name) {
				found = true
			}
		case *ast.SelectorExpr:
			if shutdownOrRecoverName(fun.Sel.Name) {
				found = true
			}
		}
		return !found
	})
	return found
}

var recoverName = regexp.MustCompile(`(?i)recover`)

func shutdownOrRecoverName(name string) bool { return recoverName.MatchString(name) }

// cancellable scans body for any accepted cancellation evidence.
func cancellable(pass *analysis.Pass, body *ast.BlockStmt, netConn, listener *types.Interface) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch v := n.(type) {
		case *ast.UnaryExpr:
			// <-ch from anything that is not a time.Ticker/time.After
			// channel counts as waiting on a signal.
			if v.Op.String() == "<-" && !isTimeChan(pass, v.X) {
				found = true
			}
		case *ast.RangeStmt:
			// ranging over a channel ends when the channel closes.
			if tv, ok := pass.Info.Types[v.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan && !isTimeChan(pass, v.X) {
					found = true
				}
			}
		case *ast.Ident:
			if obj := pass.Info.Uses[v]; obj != nil {
				if isContext(obj.Type()) {
					found = true
				}
			}
			if shutdownName.MatchString(v.Name) && pass.Info.Uses[v] != nil {
				found = true
			}
		case *ast.SelectorExpr:
			if shutdownName.MatchString(v.Sel.Name) {
				found = true
			}
		case *ast.CallExpr:
			// Blocking on Accept/Read of a closable listener/conn.
			if sel, ok := v.Fun.(*ast.SelectorExpr); ok {
				name := sel.Sel.Name
				if name == "Accept" || name == "Read" || name == "ReadFull" || name == "Decode" {
					if tv, ok := pass.Info.Types[sel.X]; ok &&
						(analysis.Implements(tv.Type, netConn) || analysis.Implements(tv.Type, listener)) {
						found = true
					}
				}
			}
			// Or a helper that reads frames from a conn argument
			// (wire.DecodePooled(conn), io.ReadFull(conn, ...)).
			for _, arg := range v.Args {
				if tv, ok := pass.Info.Types[arg]; ok && analysis.Implements(tv.Type, netConn) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// isTimeChan reports whether e is a channel sourced from the time
// package (ticker.C, time.After(...)) — periodic wakeups, not
// cancellation.
func isTimeChan(pass *analysis.Pass, e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.SelectorExpr:
		if tv, ok := pass.Info.Types[v.X]; ok {
			if named := analysis.NamedType(tv.Type); named != nil && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Path() == "time"
			}
		}
	case *ast.CallExpr:
		if sel, ok := v.Fun.(*ast.SelectorExpr); ok {
			if obj, ok := pass.Info.Uses[sel.Sel].(*types.Func); ok && obj.Pkg() != nil {
				return obj.Pkg().Path() == "time"
			}
		}
	}
	return false
}

// isContext reports whether t is context.Context.
func isContext(t types.Type) bool {
	named := analysis.NamedType(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}
