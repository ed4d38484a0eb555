// Package lockgraph builds a repo-wide lock-acquisition graph and
// reports (a) cycles — two goroutines taking the same pair of mutexes
// in opposite orders deadlock — and (b) unbounded blocking operations
// (channel ops without a timer or default, sync.WaitGroup.Wait,
// blocking network I/O without a deadline) reachable while a mutex is
// held, directly or transitively through calls into other packages.
//
// The network half is the deadline-under-lock rule: Read/Write on a
// net.Conn, or a call that hands a net.Conn to code this analysis
// cannot follow it into, performed while a mutex is held must come
// after a SetDeadline/SetReadDeadline/SetWriteDeadline in the same
// function, in source order. A wedged peer must become a bounded
// timeout, never a goroutine parked forever inside a critical section.
//
// Model: every function gets a summary — the locks it acquires, the
// calls it makes, and the unbounded blocking operations it performs,
// each with a snapshot of the locks held at that point (seeded by
// rmpvet:holds assumptions). A fixpoint propagates "transitively
// acquires lock L" and "transitively blocks" facts over the call
// graph, then lock-order edges (held H at a point that acquires L ⇒
// edge H→L) feed a cycle search. Goroutine bodies launched with `go`
// become standalone roots: their acquisitions and blocking never
// propagate to the spawning function, because the spawner does not
// wait inside its critical section.
//
// Cross-package identity is by name: functions are keyed by
// types.Func.FullName and locks by "pkgpath.Type.field" (see the
// analysis package's ProgramAnalyzer doc).
//
// Bounded-by-construction operations are exempt: selects with a
// default or a time.Time-typed case, receives from time.Time
// channels, and operations on channels or WaitGroups declared in the
// same function (structured-concurrency joins whose senders are local
// goroutines — bounded by local progress, not peer progress).
//
// Function literals inherit the held set only when invoked on the
// spot; a literal passed as an argument or stored in a field is a
// callback that runs later, on whoever executes it — it is analyzed
// as a standalone root, like a goroutine body.
package lockgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"rmp/internal/analysis"
)

// Analyzer is the whole-program lock-order and blocking-reachability
// check.
var Analyzer = &analysis.ProgramAnalyzer{
	Name: "lockgraph",
	Doc: "report lock-acquisition cycles across the whole program, and " +
		"unbounded channel/network blocking reachable while a mutex is held",
	Run: run,
}

// kind of a recorded blocking operation.
type blockKind int

const (
	blockChan blockKind = iota // channel op, WaitGroup/Cond wait
	blockNet                   // network I/O with no deadline armed
)

// acqSite is one mu.Lock()/RLock() call and the locks already held.
type acqSite struct {
	pos  token.Pos
	lock string
	held []string
}

// callSite is one resolvable call and the locks held at it.
type callSite struct {
	pos    token.Pos
	callee string // types.Func.FullName
	held   []string
	armed  bool // a wire deadline was armed in the caller before this call
}

// blockSite is one direct unbounded blocking operation.
type blockSite struct {
	pos  token.Pos
	kind blockKind
	desc string
	held []string
}

// blockEv is the fixpoint fact "this function (transitively) performs
// an unbounded blocking operation".
type blockEv struct {
	desc string
	path string // call chain below this function, "" when direct
}

// fnSum is one function's summary.
type fnSum struct {
	name     string
	acquires []acqSite
	calls    []callSite
	blocks   []blockSite

	// fixpoint results
	transAcq map[string]string // lock key -> callee it came through ("" = direct)
	chanEv   *blockEv
	netEv    *blockEv
}

// lockEdge is a lock-order relation: from is held when to is
// acquired.
type lockEdge struct{ from, to string }

// edgeEv is the first-seen evidence for a lock-order edge.
type edgeEv struct {
	pos token.Pos
	via string // callee FullName for transitive edges, "" for direct
}

func run(pass *analysis.ProgramPass) error {
	sums := map[string]*fnSum{}
	order := []string{} // deterministic iteration
	inProg := map[string]bool{}
	for _, u := range pass.Units {
		inProg[u.Pkg.Path()] = true
	}
	for _, u := range pass.Units {
		b := &builder{pass: pass, u: u, sums: sums, order: &order, inProg: inProg}
		b.typeHolds = collectTypeHolds(u)
		b.netConn = analysis.LookupIface(u.Pkg, "net", "Conn")
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				b.funcDecl(fd)
			}
		}
	}

	fixpoint(sums, order)
	report(pass, sums, order)
	return nil
}

// collectTypeHolds maps a unit's type names to the rmpvet:holds
// entries in their declaration doc comments.
func collectTypeHolds(u *analysis.Unit) map[string][]string {
	out := map[string][]string{}
	for _, f := range u.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				doc := ts.Doc
				if doc == nil {
					doc = gd.Doc
				}
				if holds := analysis.HoldsFromDoc(doc); len(holds) > 0 {
					out[ts.Name.Name] = holds
				}
			}
		}
	}
	return out
}

// builder walks one unit's functions into summaries.
type builder struct {
	pass      *analysis.ProgramPass
	u         *analysis.Unit
	sums      map[string]*fnSum
	order     *[]string
	inProg    map[string]bool // package paths of the loaded units
	typeHolds map[string][]string
	netConn   *types.Interface
}

func (b *builder) funcDecl(fd *ast.FuncDecl) {
	obj, ok := b.u.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	held := map[string]bool{}
	holds := analysis.HoldsFromDoc(fd.Doc)
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		if named := analysis.NamedType(b.u.Info.TypeOf(fd.Recv.List[0].Type)); named != nil {
			holds = append(holds, b.typeHolds[named.Obj().Name()]...)
		}
	}
	for _, h := range holds {
		if key := b.resolveHold(h); key != "" {
			held[key] = true
		}
	}
	b.walkFn(obj.FullName(), fd.Body, held)
}

// walkFn creates the summary for name and walks body under the given
// initial held set.
func (b *builder) walkFn(name string, body *ast.BlockStmt, held map[string]bool) {
	sum := &fnSum{name: name}
	b.sums[name] = sum
	*b.order = append(*b.order, name)
	w := &walker{b: b, sum: sum, locals: map[types.Object]bool{}}
	w.stmts(body.List, held)
}

// resolveHold turns "Type.mu" into the program-wide lock key
// "pkgpath.Type.mu", or "" when Type is not in this unit's scope.
func (b *builder) resolveHold(h string) string {
	i := strings.LastIndex(h, ".")
	typeName, field := h[:i], h[i+1:]
	obj, ok := b.u.Pkg.Scope().Lookup(typeName).(*types.TypeName)
	if !ok {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name() + "." + field
}

// walker threads a held-lock set through one function body.
type walker struct {
	b   *builder
	sum *fnSum
	// armed is set once a SetDeadline-family call has been walked;
	// network I/O before it, in source order, is the hazard. Goroutine
	// bodies and callback literals get a fresh walker, so they start
	// unarmed.
	armed  bool
	locals map[types.Object]bool // channels and WaitGroups declared in this function
	goN    int
	fnN    int
}

func isDeadlineName(name string) bool {
	switch name {
	case "SetDeadline", "SetReadDeadline", "SetWriteDeadline":
		return true
	}
	return false
}

func copyHeld(h map[string]bool) map[string]bool {
	c := make(map[string]bool, len(h))
	for k := range h {
		c[k] = true
	}
	return c
}

func heldSlice(h map[string]bool) []string {
	out := make([]string, 0, len(h))
	for k := range h {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (w *walker) stmts(list []ast.Stmt, held map[string]bool) map[string]bool {
	for _, s := range list {
		held = w.stmt(s, held)
	}
	return held
}

func (w *walker) stmt(s ast.Stmt, held map[string]bool) map[string]bool {
	switch v := s.(type) {
	case *ast.ExprStmt:
		if lock, op := w.lockOp(v.X); lock != "" {
			switch op {
			case "Lock", "RLock":
				w.sum.acquires = append(w.sum.acquires, acqSite{pos: v.Pos(), lock: lock, held: heldSlice(held)})
				held = copyHeld(held)
				held[lock] = true
			case "Unlock", "RUnlock":
				held = copyHeld(held)
				delete(held, lock)
			}
			return held
		}
		w.expr(v.X, held)
	case *ast.SendStmt:
		w.chanOp(v.Chan, v.Pos(), "channel send", held)
		w.expr(v.Chan, held)
		w.expr(v.Value, held)
	case *ast.AssignStmt:
		for _, rhs := range v.Rhs {
			w.expr(rhs, held)
		}
		w.trackLocalChans(v.Lhs, v.Rhs)
		for _, lhs := range v.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				w.trackLocalWGs([]*ast.Ident{id})
			}
			w.expr(lhs, held)
		}
	case *ast.DeclStmt:
		if gd, ok := v.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, val := range vs.Values {
						w.expr(val, held)
					}
					lhs := make([]ast.Expr, len(vs.Names))
					for i, n := range vs.Names {
						lhs[i] = n
					}
					w.trackLocalChans(lhs, vs.Values)
					w.trackLocalWGs(vs.Names)
				}
			}
		}
	case *ast.GoStmt:
		// The goroutine body is a standalone root: fresh held set,
		// fresh deadline state, but shared local-channel knowledge
		// (joins on the spawner's channels stay structured).
		if lit, ok := v.Call.Fun.(*ast.FuncLit); ok {
			w.goN++
			name := fmt.Sprintf("%s·go%d", w.sum.name, w.goN)
			sub := &fnSum{name: name}
			w.b.sums[name] = sub
			*w.b.order = append(*w.b.order, name)
			gw := &walker{b: w.b, sum: sub, locals: w.locals}
			gw.stmts(lit.Body.List, map[string]bool{})
		}
		for _, arg := range v.Call.Args {
			w.expr(arg, held)
		}
	case *ast.DeferStmt:
		if lock, op := w.lockOp(v.Call); lock != "" {
			// Deferred unlock: held to function end; nothing to do.
			_ = op
			return held
		}
		w.expr(v.Call, held)
	case *ast.BlockStmt:
		held = w.stmts(v.List, copyHeld(held))
	case *ast.IfStmt:
		if v.Init != nil {
			held = w.stmt(v.Init, held)
		}
		w.expr(v.Cond, held)
		w.stmts(v.Body.List, copyHeld(held))
		if v.Else != nil {
			w.stmt(v.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		inner := copyHeld(held)
		if v.Init != nil {
			inner = w.stmt(v.Init, inner)
		}
		if v.Cond != nil {
			w.expr(v.Cond, inner)
		}
		w.stmts(v.Body.List, copyHeld(inner))
		if v.Post != nil {
			w.stmt(v.Post, copyHeld(inner))
		}
	case *ast.RangeStmt:
		if tv, ok := w.b.u.Info.Types[v.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				w.chanOp(v.X, v.Pos(), "range over channel", held)
			}
		}
		w.expr(v.X, held)
		w.stmts(v.Body.List, copyHeld(held))
	case *ast.SelectStmt:
		if !w.selectBounded(v) {
			w.sum.blocks = append(w.sum.blocks, blockSite{
				pos: v.Pos(), kind: blockChan,
				desc: "select with no default or timer case",
				held: heldSlice(held),
			})
		}
		for _, cl := range v.Body.List {
			cc := cl.(*ast.CommClause)
			inner := copyHeld(held)
			if cc.Comm != nil {
				// The comm op itself is accounted by the select;
				// walk it only for nested calls.
				w.commExprs(cc.Comm, inner)
			}
			w.stmts(cc.Body, inner)
		}
	case *ast.SwitchStmt:
		if v.Init != nil {
			held = w.stmt(v.Init, held)
		}
		if v.Tag != nil {
			w.expr(v.Tag, held)
		}
		for _, cl := range v.Body.List {
			cc := cl.(*ast.CaseClause)
			inner := copyHeld(held)
			for _, e := range cc.List {
				w.expr(e, inner)
			}
			w.stmts(cc.Body, inner)
		}
	case *ast.TypeSwitchStmt:
		if v.Init != nil {
			held = w.stmt(v.Init, held)
		}
		w.stmt(v.Assign, held)
		for _, cl := range v.Body.List {
			cc := cl.(*ast.CaseClause)
			w.stmts(cc.Body, copyHeld(held))
		}
	case *ast.ReturnStmt:
		for _, r := range v.Results {
			w.expr(r, held)
		}
	case *ast.LabeledStmt:
		held = w.stmt(v.Stmt, held)
	case *ast.IncDecStmt:
		w.expr(v.X, held)
	}
	return held
}

// commExprs walks a select comm statement's sub-expressions without
// recording its top-level channel operation.
func (w *walker) commExprs(s ast.Stmt, held map[string]bool) {
	switch v := s.(type) {
	case *ast.ExprStmt:
		if u, ok := v.X.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			w.expr(u.X, held)
			return
		}
		w.expr(v.X, held)
	case *ast.SendStmt:
		w.expr(v.Chan, held)
		w.expr(v.Value, held)
	case *ast.AssignStmt:
		for _, rhs := range v.Rhs {
			if u, ok := rhs.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				w.expr(u.X, held)
				continue
			}
			w.expr(rhs, held)
		}
	}
}

// trackLocalWGs marks sync.WaitGroups declared in this function (Defs
// only — a := declaration or var statement, never an assignment to an
// outer variable). Joining one blocks only on goroutines this function
// launched: a structured join, bounded by local progress.
func (w *walker) trackLocalWGs(names []*ast.Ident) {
	for _, n := range names {
		obj := w.b.u.Info.Defs[n]
		if obj == nil {
			continue
		}
		named := analysis.NamedType(obj.Type())
		if named != nil && named.Obj().Pkg() != nil &&
			named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "WaitGroup" {
			w.locals[obj] = true
		}
	}
}

// trackLocalChans records channels created by make(chan ...) into the
// function's local set.
func (w *walker) trackLocalChans(lhs, rhs []ast.Expr) {
	if len(lhs) != len(rhs) {
		return
	}
	for i, r := range rhs {
		call, ok := r.(*ast.CallExpr)
		if !ok {
			continue
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "make" || len(call.Args) == 0 {
			continue
		}
		if tv, ok := w.b.u.Info.Types[r]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); !isChan {
				continue
			}
		}
		id, ok := lhs[i].(*ast.Ident)
		if !ok {
			continue
		}
		if obj := w.b.u.Info.Defs[id]; obj != nil {
			w.locals[obj] = true
		} else if obj := w.b.u.Info.Uses[id]; obj != nil {
			w.locals[obj] = true
		}
	}
}

// chanOp records an unbounded channel operation unless the channel is
// time-sourced or function-local.
func (w *walker) chanOp(ch ast.Expr, pos token.Pos, desc string, held map[string]bool) {
	if w.isTimeChan(ch) || w.isLocalChan(ch) {
		return
	}
	w.sum.blocks = append(w.sum.blocks, blockSite{pos: pos, kind: blockChan, desc: desc, held: heldSlice(held)})
}

func (w *walker) isLocalChan(e ast.Expr) bool { return w.isLocalOwned(e) }

// isLocalOwned reports whether e names a channel or WaitGroup declared
// in this function.
func (w *walker) isLocalOwned(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	obj := w.b.u.Info.Uses[id]
	if obj == nil {
		obj = w.b.u.Info.Defs[id]
	}
	return obj != nil && w.locals[obj]
}

// isTimeChan reports whether e is a channel of time.Time values
// (timer/ticker channels, time.After results, and variables holding
// them) — bounded by the clock, not by a peer.
func (w *walker) isTimeChan(e ast.Expr) bool {
	tv, ok := w.b.u.Info.Types[e]
	if !ok {
		return false
	}
	ch, ok := tv.Type.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	named := analysis.NamedType(ch.Elem())
	return named != nil && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "time" && named.Obj().Name() == "Time"
}

// selectBounded reports whether a select cannot park forever: it has
// a default case or a time-sourced receive case.
func (w *walker) selectBounded(v *ast.SelectStmt) bool {
	for _, cl := range v.Body.List {
		cc := cl.(*ast.CommClause)
		if cc.Comm == nil {
			return true // default
		}
		var recv ast.Expr
		switch s := cc.Comm.(type) {
		case *ast.ExprStmt:
			if u, ok := s.X.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				recv = u.X
			}
		case *ast.AssignStmt:
			if len(s.Rhs) == 1 {
				if u, ok := s.Rhs[0].(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					recv = u.X
				}
			}
		}
		if recv != nil && w.isTimeChan(recv) {
			return true
		}
	}
	return false
}

// lockOp recognizes x.<field>.Lock/Unlock/RLock/RUnlock() where field
// is a sync.Mutex or sync.RWMutex, returning the program-wide lock
// key and the method name.
func (w *walker) lockOp(e ast.Expr) (lock, op string) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", ""
	}
	field, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	if !isLockType(w.b.u.Info.TypeOf(field)) {
		return "", ""
	}
	named := analysis.NamedType(w.b.u.Info.TypeOf(field.X))
	if named == nil || named.Obj().Pkg() == nil {
		return "", ""
	}
	key := named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + field.Sel.Name
	return key, sel.Sel.Name
}

func isLockType(t types.Type) bool {
	named := analysis.NamedType(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	if named.Obj().Pkg().Path() != "sync" {
		return false
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
		return true
	}
	return false
}

// expr walks an expression recording calls, channel receives,
// blocking waits and network I/O.
func (w *walker) expr(e ast.Expr, held map[string]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			// A literal that is not invoked on the spot (call() handles
			// that case before descending here) is a callback: it runs
			// later, on whoever executes it, not inside this critical
			// section. Analyze it as a standalone root, like a go body.
			w.fnN++
			name := fmt.Sprintf("%s·fn%d", w.sum.name, w.fnN)
			sub := &fnSum{name: name}
			w.b.sums[name] = sub
			*w.b.order = append(*w.b.order, name)
			fw := &walker{b: w.b, sum: sub, locals: w.locals}
			fw.stmts(v.Body.List, map[string]bool{})
			return false
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				w.chanOp(v.X, v.Pos(), "channel receive", held)
			}
		case *ast.CallExpr:
			w.call(v, held)
			return false
		}
		return true
	})
}

// call records one call expression: blocking waits, network I/O, and
// resolvable callees; then walks its sub-expressions.
func (w *walker) call(call *ast.CallExpr, held map[string]bool) {
	info := w.b.u.Info
	if fl, ok := call.Fun.(*ast.FuncLit); ok {
		// Immediately-invoked literal: runs right here, inside the
		// current critical section.
		w.stmts(fl.Body.List, copyHeld(held))
		for _, arg := range call.Args {
			w.expr(arg, held)
		}
		return
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		recvT := info.TypeOf(sel.X)
		if sel.Sel.Name == "Wait" && recvT != nil && !w.isLocalOwned(sel.X) {
			if named := analysis.NamedType(recvT); named != nil && named.Obj().Pkg() != nil &&
				named.Obj().Pkg().Path() == "sync" {
				w.sum.blocks = append(w.sum.blocks, blockSite{
					pos: call.Pos(), kind: blockChan,
					desc: "sync." + named.Obj().Name() + ".Wait",
					held: heldSlice(held),
				})
			}
		}
		if isDeadlineName(sel.Sel.Name) {
			w.armed = true
		}
		if !w.armed && w.b.netConn != nil && recvT != nil && analysis.Implements(recvT, w.b.netConn) {
			switch sel.Sel.Name {
			case "Read", "Write", "ReadFrom", "WriteTo":
				w.sum.blocks = append(w.sum.blocks, blockSite{
					pos: call.Pos(), kind: blockNet,
					desc: "net.Conn." + sel.Sel.Name + " with no deadline armed",
					held: heldSlice(held),
				})
			}
		}
	}

	// A net.Conn handed to code whose summary cannot see it as one is
	// potential network I/O at this site: a callee with no body in the
	// program (io.ReadFull(conn, ...), an interface method, a function
	// value), or one that takes it as a plain io.Reader/io.Writer
	// (wire.Decode(conn)). Builtins and conversions (delete(conns, c),
	// append(conns, c)) never perform I/O whatever their arguments.
	callee := w.resolveCallee(call)
	if tv := info.Types[call.Fun]; !w.armed && w.b.netConn != nil &&
		!tv.IsBuiltin() && !tv.IsType() && !isNetSafeCall(call) {
		sig, _ := tv.Type.(*types.Signature)
		for i, arg := range call.Args {
			if !analysis.Implements(info.TypeOf(arg), w.b.netConn) {
				continue
			}
			if callee != "" && analysis.Implements(paramType(sig, i), w.b.netConn) {
				continue // the callee's own summary follows the conn
			}
			w.sum.blocks = append(w.sum.blocks, blockSite{
				pos: call.Pos(), kind: blockNet,
				desc: "call passing a net.Conn with no deadline armed",
				held: heldSlice(held),
			})
			break
		}
	}
	if callee != "" {
		w.sum.calls = append(w.sum.calls, callSite{pos: call.Pos(), callee: callee, held: heldSlice(held), armed: w.armed})
	}

	w.expr(call.Fun, held)
	for _, arg := range call.Args {
		w.expr(arg, held)
	}
}

// paramType returns the type argument i binds to in sig (the element
// type for a variadic tail), or nil.
func paramType(sig *types.Signature, i int) types.Type {
	if sig == nil || sig.Params().Len() == 0 {
		return nil
	}
	last := sig.Params().Len() - 1
	if sig.Variadic() && i >= last {
		if sl, ok := sig.Params().At(last).Type().(*types.Slice); ok {
			return sl.Elem()
		}
	}
	if i > last {
		return nil
	}
	return sig.Params().At(i).Type()
}

// isNetSafeCall exempts non-blocking conn uses passed as arguments.
func isNetSafeCall(call *ast.CallExpr) bool {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "Close", "LocalAddr", "RemoteAddr":
			return true
		}
		if isDeadlineName(sel.Sel.Name) {
			return true
		}
	}
	return false
}

// resolveCallee returns the callee's FullName when the call target is
// a concrete function or method in the program, "" otherwise
// (builtins, interface methods, function values, and functions of
// packages outside the loaded units, whose bodies are not summarized).
func (w *walker) resolveCallee(call *ast.CallExpr) string {
	info := w.b.u.Info
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	default:
		return ""
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || !w.b.inProg[fn.Pkg().Path()] {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		if _, isIface := recv.Type().Underlying().(*types.Interface); isIface {
			return ""
		}
	}
	return fn.FullName()
}

// fixpoint propagates transitive acquisitions and blocking facts over
// the call graph until stable.
func fixpoint(sums map[string]*fnSum, order []string) {
	for _, name := range order {
		f := sums[name]
		f.transAcq = map[string]string{}
		for _, a := range f.acquires {
			f.transAcq[a.lock] = ""
		}
		for _, b := range f.blocks {
			switch b.kind {
			case blockChan:
				if f.chanEv == nil {
					f.chanEv = &blockEv{desc: b.desc}
				}
			case blockNet:
				if f.netEv == nil {
					f.netEv = &blockEv{desc: b.desc}
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, name := range order {
			f := sums[name]
			for _, c := range f.calls {
				g := sums[c.callee]
				if g == nil {
					continue
				}
				for lock := range g.transAcq {
					if _, ok := f.transAcq[lock]; !ok {
						f.transAcq[lock] = c.callee
						changed = true
					}
				}
				if g.chanEv != nil && f.chanEv == nil {
					f.chanEv = extend(g.chanEv, c.callee)
					changed = true
				}
				// A deadline armed before the call bounds the
				// callee's network I/O, not its channel waits.
				if g.netEv != nil && f.netEv == nil && !c.armed {
					f.netEv = extend(g.netEv, c.callee)
					changed = true
				}
			}
		}
	}
}

func extend(ev *blockEv, via string) *blockEv {
	path := shorten(via)
	if ev.path != "" {
		path += " → " + ev.path
	}
	return &blockEv{desc: ev.desc, path: path}
}

// report emits diagnostics: blocking under a lock (direct channel and
// network operations, and transitive closures through calls), then
// lock-order cycles.
func report(pass *analysis.ProgramPass, sums map[string]*fnSum, order []string) {
	edges := map[lockEdge]edgeEv{}
	addEdge := func(from, to string, ev edgeEv) {
		e := lockEdge{from, to}
		if _, ok := edges[e]; !ok {
			edges[e] = ev
		}
	}

	for _, name := range order {
		f := sums[name]
		for _, b := range f.blocks {
			if len(b.held) == 0 {
				continue
			}
			desc := b.desc
			if b.kind == blockChan {
				desc = "unbounded " + desc
			}
			pass.Reportf(b.pos, "%s while holding %s — a stalled peer parks this goroutine inside the critical section",
				desc, shortenAll(b.held))
		}
		for _, c := range f.calls {
			g := sums[c.callee]
			if g == nil {
				continue
			}
			for _, h := range c.held {
				for lock := range g.transAcq {
					addEdge(h, lock, edgeEv{pos: c.pos, via: c.callee})
				}
			}
			if len(c.held) > 0 {
				if g.chanEv != nil {
					pass.Reportf(c.pos, "call to %s while holding %s reaches an unbounded %s%s",
						shorten(c.callee), shortenAll(c.held), g.chanEv.desc, viaSuffix(g.chanEv.path))
				}
				if g.netEv != nil && !c.armed {
					pass.Reportf(c.pos, "call to %s while holding %s reaches %s%s",
						shorten(c.callee), shortenAll(c.held), g.netEv.desc, viaSuffix(g.netEv.path))
				}
			}
		}
		for _, a := range f.acquires {
			for _, h := range a.held {
				addEdge(h, a.lock, edgeEv{pos: a.pos})
			}
		}
	}

	reportCycles(pass, edges)
}

func viaSuffix(path string) string {
	if path == "" {
		return ""
	}
	return " (via " + path + ")"
}

// reportCycles finds strongly connected components in the lock-order
// graph and reports each cycle once, with per-edge evidence.
func reportCycles(pass *analysis.ProgramPass, edges map[lockEdge]edgeEv) {
	adj := map[string][]string{}
	nodes := map[string]bool{}
	for e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
		nodes[e.from], nodes[e.to] = true, true
	}
	var names []string
	for n := range nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, outs := range adj {
		sort.Strings(outs)
	}

	// Self-loops: recursive acquisition.
	for _, n := range names {
		if ev, ok := edges[lockEdge{n, n}]; ok {
			msg := fmt.Sprintf("lock %s acquired while already held — recursive acquisition of a Go mutex deadlocks", shorten(n))
			if ev.via != "" {
				msg += " (via " + shorten(ev.via) + ")"
			}
			pass.Reportf(ev.pos, "%s", msg)
		}
	}

	// Tarjan SCC, iterative over sorted nodes for determinism.
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var sccs [][]string
	next := 0
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, to := range adj[v] {
			if _, seen := index[to]; !seen {
				strongconnect(to)
				if low[to] < low[v] {
					low[v] = low[to]
				}
			} else if onStack[to] && index[to] < low[v] {
				low[v] = index[to]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			if len(scc) > 1 {
				sccs = append(sccs, scc)
			}
		}
	}
	for _, n := range names {
		if _, seen := index[n]; !seen {
			strongconnect(n)
		}
	}

	for _, scc := range sccs {
		sort.Strings(scc)
		in := map[string]bool{}
		for _, n := range scc {
			in[n] = true
		}
		// Walk one cycle through the SCC for the message: follow
		// sorted adjacency restricted to the component.
		var parts []string
		var firstEv *edgeEv
		cur := scc[0]
		seen := map[string]bool{}
		for !seen[cur] {
			seen[cur] = true
			nextNode := ""
			for _, to := range adj[cur] {
				if in[to] && to != cur {
					nextNode = to
					break
				}
			}
			if nextNode == "" {
				break
			}
			ev := edges[lockEdge{cur, nextNode}]
			if firstEv == nil {
				evCopy := ev
				firstEv = &evCopy
			}
			detail := fmt.Sprintf("%s → %s at %s", shorten(cur), shorten(nextNode), pass.Fset.Position(ev.pos))
			if ev.via != "" {
				detail += " (via " + shorten(ev.via) + ")"
			}
			parts = append(parts, detail)
			cur = nextNode
		}
		if firstEv == nil {
			continue
		}
		pass.Reportf(firstEv.pos, "lock-order cycle among %s — concurrent goroutines taking these locks in different orders deadlock: %s",
			shortenAll(scc), strings.Join(parts, "; "))
	}
}

// shorten drops import-path directories from a lock key or function
// FullName for readability: "rmp/internal/store.Tiered.mu" →
// "store.Tiered.mu".
var pathDirs = regexp.MustCompile(`[\w.\-~]+/`)

func shorten(s string) string {
	return pathDirs.ReplaceAllString(s, "")
}

func shortenAll(keys []string) string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = shorten(k)
	}
	return strings.Join(out, ", ")
}
