package goleak

import (
	"go/ast"
	"go/token"
	"go/types"

	"rmp/internal/analysis"
)

// index resolves go-statement callees and interface lookups across
// every unit of the program.
type index struct {
	pass  *analysis.ProgramPass
	decls map[string]declAt // types.Func.FullName -> declaration
}

type declAt struct {
	decl *ast.FuncDecl
	unit *analysis.Unit
}

func newIndex(pass *analysis.ProgramPass) *index {
	ix := &index{pass: pass, decls: map[string]declAt{}}
	for _, u := range pass.Units {
		for _, f := range u.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					if obj, ok := u.Info.Defs[fd.Name].(*types.Func); ok {
						ix.decls[obj.FullName()] = declAt{fd, u}
					}
				}
			}
		}
	}
	return ix
}

// goBody resolves the body a go statement runs: the literal's body,
// or the declaration of a named function or method in any unit of the
// program. Unresolvable callees (interface methods, func values)
// return nil.
func (ix *index) goBody(u *analysis.Unit, gs *ast.GoStmt) (*ast.BlockStmt, *analysis.Unit) {
	switch fun := gs.Call.Fun.(type) {
	case *ast.FuncLit:
		return fun.Body, u
	case *ast.Ident:
		if obj, ok := u.Info.Uses[fun].(*types.Func); ok {
			if at, ok := ix.decls[obj.FullName()]; ok {
				return at.decl.Body, at.unit
			}
		}
	case *ast.SelectorExpr:
		if obj, ok := u.Info.Uses[fun.Sel].(*types.Func); ok {
			if at, ok := ix.decls[obj.FullName()]; ok {
				return at.decl.Body, at.unit
			}
		}
	}
	return nil, nil
}

// fieldKey resolves a selector x.f to "pkgpath.Type.field" when x has
// a named struct type declared in some package; "" otherwise.
func fieldKey(u *analysis.Unit, sel *ast.SelectorExpr) string {
	tv, ok := u.Info.Types[sel.X]
	if !ok {
		return ""
	}
	named := analysis.NamedType(tv.Type)
	if named == nil || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + sel.Sel.Name
}

// scanOwnership walks a go body collecting ownership evidence into
// site: either unconditional ownership (ctx, structured local
// channel/WaitGroup, closable conn in hand) or candidate field owners
// whose shutdown discipline run() verifies afterwards.
func scanOwnership(u *analysis.Unit, body *ast.BlockStmt, site *goSite, ix *index) {
	netConn := analysis.LookupIface(u.Pkg, "net", "Conn")
	listener := analysis.LookupIface(u.Pkg, "net", "Listener")
	seen := map[string]bool{}
	addField := func(key string, kind ownKind) {
		if key == "" || seen[key] {
			return
		}
		seen[key] = true
		site.fields = append(site.fields, fieldRef{key: key, typ: typOf(key), kind: kind})
	}
	// owner classifies the expression the body blocks on or signals
	// through: a bare identifier (local, param, captured, or
	// package-level) is structured ownership — the declaring scope is
	// the owner; a field selector becomes a candidate to verify.
	owner := func(e ast.Expr, kind ownKind) {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			if u.Info.Uses[v] != nil || u.Info.Defs[v] != nil {
				site.owned = true
			}
		case *ast.SelectorExpr:
			if key := fieldKey(u, v); key != "" {
				addField(key, kind)
			} else {
				site.owned = true // x.ch where x is a local struct literal, etc.
			}
		default:
			site.owned = true // call results, index exprs: not field-held
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if site.owned {
			return false
		}
		switch v := n.(type) {
		case *ast.UnaryExpr:
			if v.Op == token.ARROW && !isTimeChan(u, v.X) {
				owner(v.X, ownChan)
			}
		case *ast.RangeStmt:
			if tv, ok := u.Info.Types[v.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan && !isTimeChan(u, v.X) {
					owner(v.X, ownChan)
				}
			}
		case *ast.SendStmt:
			// A send into a channel in hand (result delivery) is a
			// completion signal only for non-field channels: sends
			// into a component's inbox are work, not ownership.
			if id, ok := ast.Unparen(v.Chan).(*ast.Ident); ok && u.Info.Uses[id] != nil {
				site.owned = true
			}
		case *ast.Ident:
			if obj := u.Info.Uses[v]; obj != nil && isContext(obj.Type()) {
				site.owned = true
			}
		case *ast.CallExpr:
			sel, ok := v.Fun.(*ast.SelectorExpr)
			if !ok {
				break
			}
			recv, hasRecv := u.Info.Types[sel.X]
			switch sel.Sel.Name {
			case "Done", "Wait":
				if hasRecv && isWaitGroup(recv.Type) {
					owner(sel.X, ownWG)
				}
			case "Load":
				// atomic.Bool shutdown flag.
				if hasRecv && isAtomicBool(recv.Type) && flagName.MatchString(fieldName(sel)) {
					owner(sel.X, ownFlag)
				}
			case "Accept", "Read", "ReadFull", "Decode", "ReadFrom", "Recv":
				if hasRecv && (analysis.Implements(recv.Type, netConn) || analysis.Implements(recv.Type, listener)) {
					owner(sel.X, ownConn)
				}
			}
			// A shutdown-state poll through a method (srv.Draining(),
			// s.isClosed()) counts like a poll of the flag itself.
			// WaitGroup.Done is a completion signal, not a poll — it
			// was classified as a wg owner above.
			if flagName.MatchString(sel.Sel.Name) && !(hasRecv && isWaitGroup(recv.Type)) {
				if _, isMethod := u.Info.Uses[sel.Sel].(*types.Func); isMethod {
					site.owned = true
				}
			}
			// Helpers that block on a conn argument: wire.DecodePooled(conn),
			// io.ReadFull(conn, buf).
			for _, arg := range v.Args {
				if tv, ok := u.Info.Types[arg]; ok &&
					(analysis.Implements(tv.Type, netConn) || analysis.Implements(tv.Type, listener)) {
					owner(arg, ownConn)
				}
			}
		case *ast.SelectorExpr:
			// Polling a shutdown-named boolean field.
			if tv, ok := u.Info.Types[v]; ok && isBool(tv.Type) && flagName.MatchString(v.Sel.Name) {
				if _, isField := u.Info.Uses[v.Sel].(*types.Var); isField {
					owner(v, ownFlag)
				}
			}
		}
		return !site.owned
	})
}

// summarize builds the close/call summary of one function
// declaration for the shutdown-propagation fixpoint.
func summarize(u *analysis.Unit, fd *ast.FuncDecl, obj *types.Func) *fnSum {
	sum := &fnSum{name: obj.FullName(), closes: map[string]closeFact{}}
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		if tv, ok := u.Info.Types[fd.Recv.List[0].Type]; ok {
			if named := analysis.NamedType(tv.Type); named != nil && named.Obj().Pkg() != nil {
				sum.recvTyp = named.Obj().Pkg().Path() + "." + named.Obj().Name()
			}
		}
	}
	w := &sumWalker{u: u, sum: sum}
	w.stmts(fd.Body.List, false, nil)
	return sum
}

type sumWalker struct {
	u   *analysis.Unit
	sum *fnSum
}

func (w *sumWalker) close(key string, pos token.Pos, cond bool, lic map[string]bool) {
	if key == "" {
		return
	}
	provable := !cond || lic[key]
	if old, ok := w.sum.closes[key]; ok && (old.provable || !provable) {
		return
	}
	w.sum.closes[key] = closeFact{pos: pos, provable: provable}
}

func (w *sumWalker) stmts(list []ast.Stmt, cond bool, lic map[string]bool) {
	for _, s := range list {
		w.stmt(s, cond, lic)
	}
}

// stmt records close evidence and calls, tracking whether the
// statement runs conditionally. A defer registered at depth 0 runs on
// every return path, so it keeps the registration point's cond. lic
// holds field keys licensed by an enclosing nil-guard: inside
// `if x.f != nil { ... }`, cancelling x.f is as good as unconditional,
// because the guard exists only to skip a never-started worker (and
// close(nil) would panic).
func (w *sumWalker) stmt(s ast.Stmt, cond bool, lic map[string]bool) {
	switch v := s.(type) {
	case *ast.BlockStmt:
		w.stmts(v.List, cond, lic)
	case *ast.LabeledStmt:
		w.stmt(v.Stmt, cond, lic)
	case *ast.IfStmt:
		thenLic, elseLic := lic, lic
		if key, nonNilThen := nilGuard(w.u, v.Cond); key != "" {
			licd := map[string]bool{key: true}
			for k := range lic {
				licd[k] = true
			}
			if nonNilThen {
				thenLic = licd
			} else {
				elseLic = licd
			}
		}
		w.stmt(v.Body, true, thenLic)
		if v.Else != nil {
			w.stmt(v.Else, true, elseLic)
		}
	case *ast.ForStmt:
		w.stmt(v.Body, true, lic)
	case *ast.RangeStmt:
		w.stmt(v.Body, true, lic)
	case *ast.SwitchStmt:
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, true, lic)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, true, lic)
			}
		}
	case *ast.SelectStmt:
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.stmts(cc.Body, true, lic)
			}
		}
	case *ast.DeferStmt:
		w.call(v.Call, cond, lic)
	case *ast.ExprStmt:
		if call, ok := v.X.(*ast.CallExpr); ok {
			w.call(call, cond, lic)
		}
	case *ast.ReturnStmt:
		for _, r := range v.Results {
			if call, ok := ast.Unparen(r).(*ast.CallExpr); ok {
				w.call(call, cond, lic)
			}
		}
	case *ast.AssignStmt:
		// s.closed = true — setting a shutdown flag.
		for i, lhs := range v.Lhs {
			sel, ok := lhs.(*ast.SelectorExpr)
			if !ok || i >= len(v.Rhs) {
				continue
			}
			if id, ok := v.Rhs[i].(*ast.Ident); ok && id.Name == "true" && flagName.MatchString(sel.Sel.Name) {
				w.close(fieldKey(w.u, sel), sel.Pos(), cond, lic)
			}
		}
		for _, rhs := range v.Rhs {
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
				w.call(call, cond, lic)
			}
		}
	}
}

// nilGuard recognizes `x.f != nil` (nonNilThen=true) and `x.f == nil`
// (nonNilThen=false) conditions, returning the guarded field key.
func nilGuard(u *analysis.Unit, cond ast.Expr) (key string, nonNilThen bool) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.NEQ && be.Op != token.EQL) {
		return "", false
	}
	x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
	if id, ok := y.(*ast.Ident); !ok || id.Name != "nil" {
		if id, ok := x.(*ast.Ident); !ok || id.Name != "nil" {
			return "", false
		}
		x = y
	}
	sel, ok := x.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	return fieldKey(u, sel), be.Op == token.NEQ
}

// call records one call expression: a direct cancellation (close,
// Wait, Close, Store(true)), a sync.Once.Do whose body executes with
// the Do's conditionality, or a resolvable callee for the fixpoint.
func (w *sumWalker) call(call *ast.CallExpr, cond bool, lic map[string]bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fun.Name == "close" && len(call.Args) == 1 {
			if sel, ok := ast.Unparen(call.Args[0]).(*ast.SelectorExpr); ok {
				w.close(fieldKey(w.u, sel), call.Pos(), cond, lic)
				return
			}
		}
		if obj, ok := w.u.Info.Uses[fun].(*types.Func); ok {
			w.sum.calls = append(w.sum.calls, callEv{callee: obj.FullName(), provable: !cond, pos: call.Pos()})
		}
	case *ast.FuncLit:
		// Immediately-invoked literal runs right here.
		w.stmts(fun.Body.List, cond, lic)
	case *ast.SelectorExpr:
		recv, hasRecv := w.u.Info.Types[fun.X]
		inner, innerIsSel := ast.Unparen(fun.X).(*ast.SelectorExpr)
		switch fun.Sel.Name {
		case "Wait":
			if hasRecv && isWaitGroup(recv.Type) && innerIsSel {
				w.close(fieldKey(w.u, inner), call.Pos(), cond, lic)
				return
			}
		case "Close":
			if innerIsSel {
				w.close(fieldKey(w.u, inner), call.Pos(), cond, lic)
				// fall through to also record the method call
			}
		case "Store":
			if hasRecv && isAtomicBool(recv.Type) && innerIsSel && len(call.Args) == 1 {
				if id, ok := call.Args[0].(*ast.Ident); ok && id.Name == "true" {
					w.close(fieldKey(w.u, inner), call.Pos(), cond, lic)
					return
				}
			}
		case "Do":
			if hasRecv && isOnce(recv.Type) && len(call.Args) == 1 {
				switch arg := ast.Unparen(call.Args[0]).(type) {
				case *ast.FuncLit:
					// once.Do(func(){...}) executes with Do's own
					// conditionality for shutdown purposes.
					w.stmts(arg.Body.List, cond, lic)
					return
				case *ast.Ident:
					if obj, ok := w.u.Info.Uses[arg].(*types.Func); ok {
						w.sum.calls = append(w.sum.calls, callEv{callee: obj.FullName(), provable: !cond, pos: call.Pos()})
						return
					}
				case *ast.SelectorExpr:
					if obj, ok := w.u.Info.Uses[arg.Sel].(*types.Func); ok {
						w.sum.calls = append(w.sum.calls, callEv{callee: obj.FullName(), provable: !cond, pos: call.Pos()})
						return
					}
				}
			}
		}
		if obj, ok := w.u.Info.Uses[fun.Sel].(*types.Func); ok {
			w.sum.calls = append(w.sum.calls, callEv{callee: obj.FullName(), provable: !cond, pos: call.Pos()})
		}
	}
}

// propagate spreads close facts up the call graph: a caller that
// unconditionally calls a function that unconditionally closes K
// itself provably closes K. Conditional anywhere on the chain makes
// the fact conditional.
func propagate(sums map[string]*fnSum, order []string) {
	for changed := true; changed; {
		changed = false
		for _, name := range order {
			sum := sums[name]
			for _, ev := range sum.calls {
				callee := sums[ev.callee]
				if callee == nil {
					continue
				}
				for key, cf := range callee.closes {
					prov := cf.provable && ev.provable
					if old, ok := sum.closes[key]; ok && (old.provable || !prov) {
						continue
					}
					sum.closes[key] = closeFact{pos: ev.pos, provable: prov}
					changed = true
				}
			}
		}
	}
}

func isWaitGroup(t types.Type) bool {
	named := analysis.NamedType(t)
	return named != nil && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "WaitGroup"
}

func isOnce(t types.Type) bool {
	named := analysis.NamedType(t)
	return named != nil && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "Once"
}

func isAtomicBool(t types.Type) bool {
	named := analysis.NamedType(t)
	return named != nil && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync/atomic" && named.Obj().Name() == "Bool"
}

func isBool(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Bool
}

func isContext(t types.Type) bool {
	named := analysis.NamedType(t)
	return named != nil && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}

// fieldName returns the selected field's name when sel.X is itself a
// selector (x.f.Load() → "f"); "" otherwise.
func fieldName(sel *ast.SelectorExpr) string {
	if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
		return inner.Sel.Name
	}
	return ""
}

// isTimeChan reports whether e is a channel sourced from the time
// package (ticker.C, time.After(...)): periodic wakeups, not owners.
func isTimeChan(u *analysis.Unit, e ast.Expr) bool {
	switch v := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if tv, ok := u.Info.Types[v.X]; ok {
			if named := analysis.NamedType(tv.Type); named != nil && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Path() == "time"
			}
		}
	case *ast.CallExpr:
		if sel, ok := v.Fun.(*ast.SelectorExpr); ok {
			if obj, ok := u.Info.Uses[sel.Sel].(*types.Func); ok && obj.Pkg() != nil {
				return obj.Pkg().Path() == "time"
			}
		}
	}
	return false
}
