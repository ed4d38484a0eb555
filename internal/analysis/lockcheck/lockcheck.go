// Package lockcheck enforces the repository's documented lock
// discipline mechanically: a struct field whose doc (or line) comment
// says "guarded by mu" — or "guarded by Type.mu" for state owned by
// another struct's lock, like remoteServer fields under Pager.mu — may
// only be read while that mutex (or its read half) is held, and only
// be written while it is write-held. (What may not *happen* under a
// lock — unbounded channel waits, network I/O with no deadline armed —
// is lockgraph's rule; it sees the whole program.)
//
// Lock state is tracked per function over the statement list in
// source order: x.mu.Lock() marks (Type-of-x, "mu") held, Unlock
// clears it, defer x.mu.Unlock() holds it for the rest of the
// function, and RLock holds it in read mode (writing a guarded field
// under RLock is reported). Nested blocks inherit the current set;
// lock operations inside a branch do not leak past it (conservative —
// keep lock pairs at one nesting level, which this codebase does).
// Function literals inherit the current set, except goroutine bodies
// (`go func(){...}`), which start empty: the new goroutine does not
// hold its creator's locks.
//
// Escapes:
//
//   - Functions (or whole receiver types) whose doc carries
//     "//rmpvet:holds Type.mu" are analyzed with that lock assumed
//     held — the annotation for the pager's "runs with p.mu held"
//     helper/policy convention, and it is enforced at least to exist.
//   - Accesses through a struct value created in the same function
//     (x := &T{...}; x.field = ...) are constructor initialization
//     and exempt.
//   - "//rmpvet:allow lockcheck" suppresses a line, for the rare
//     intentionally unsynchronized access (with a stated reason).
//
// The guard relation is keyed by type, not by instance: holding
// a.mu while touching b.field of another instance of the same type
// will not be caught. That trade keeps the checker simple and has
// not mattered in this tree, where guarded structs are singletons
// per owner (one Pager, one Server, one Store per server).
package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"rmp/internal/analysis"
)

// Analyzer is the lockcheck check.
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc:  "fields documented 'guarded by <mu>' must be accessed under that mutex",
	Run:  run,
}

// guardComment matches "guarded by mu" / "guarded by Pager.mu",
// tolerating a line wrap after "by" and not swallowing a sentence's
// trailing period.
var guardComment = regexp.MustCompile(`(?i)guarded by\s+(\w+(?:\.\w+)*)`)

// lockKey identifies a lock as (owning named type, field name).
type lockKey struct {
	typ  *types.TypeName
	name string
}

// lockMode distinguishes exclusive from shared holds.
type lockMode int

const (
	modeWrite lockMode = iota
	modeRead
)

// checker carries per-package state.
type checker struct {
	pass *analysis.Pass
	// guards maps each annotated field object to the lock that
	// protects it.
	guards map[*types.Var]lockKey
	// typeHolds maps a named type to locks every method of that type
	// may assume held (type-level rmpvet:holds).
	typeHolds map[*types.TypeName][]lockKey
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:      pass,
		guards:    make(map[*types.Var]lockKey),
		typeHolds: make(map[*types.TypeName][]lockKey),
	}
	c.collectGuards()
	if len(c.guards) == 0 {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.checkFunc(fd)
		}
	}
	return nil
}

// collectGuards finds every "guarded by" field annotation and every
// type-level rmpvet:holds directive.
func (c *checker) collectGuards() {
	for _, file := range c.pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				tn, ok := c.pass.Info.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				// Type-level holds directive: applies to all methods.
				for _, doc := range []*ast.CommentGroup{gd.Doc, ts.Doc, ts.Comment} {
					for _, h := range analysis.HoldsFromDoc(doc) {
						if key, ok := c.resolveHold(h); ok {
							c.typeHolds[tn] = append(c.typeHolds[tn], key)
						}
					}
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					guard := guardFromComments(field.Doc, field.Comment)
					if guard == "" {
						continue
					}
					key, ok := c.resolveGuard(tn, guard)
					if !ok {
						c.pass.Reportf(field.Pos(), "guarded-by annotation %q does not name a mutex field (want mu or Type.mu)", guard)
						continue
					}
					for _, name := range field.Names {
						if fv, ok := c.pass.Info.Defs[name].(*types.Var); ok {
							c.guards[fv] = key
						}
					}
				}
			}
		}
	}
}

// guardFromComments extracts the guard name from a field's comments.
func guardFromComments(groups ...*ast.CommentGroup) string {
	for _, g := range groups {
		if g == nil {
			continue
		}
		if m := guardComment.FindStringSubmatch(g.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// resolveGuard turns a guard annotation on a field of type owner into
// a lockKey: "mu" means a sibling field, "Pager.mu" a field of
// another type in this package.
func (c *checker) resolveGuard(owner *types.TypeName, guard string) (lockKey, bool) {
	if key, ok := c.resolveHold(guard); ok {
		return key, true
	}
	// Unqualified: a sibling field of the same struct.
	st, ok := owner.Type().Underlying().(*types.Struct)
	if !ok {
		return lockKey{}, false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == guard && isLockType(st.Field(i).Type()) {
			return lockKey{typ: owner, name: guard}, true
		}
	}
	return lockKey{}, false
}

// resolveHold parses a qualified "Type.mu" reference against the
// package scope.
func (c *checker) resolveHold(ref string) (lockKey, bool) {
	m := regexp.MustCompile(`^(\w+)\.(\w+)$`).FindStringSubmatch(ref)
	if m == nil {
		return lockKey{}, false
	}
	tn, ok := c.pass.Pkg.Scope().Lookup(m[1]).(*types.TypeName)
	if !ok {
		return lockKey{}, false
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return lockKey{}, false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == m[2] && isLockType(st.Field(i).Type()) {
			return lockKey{typ: tn, name: m[2]}, true
		}
	}
	return lockKey{}, false
}

// isLockType reports whether t is sync.Mutex/RWMutex (or a pointer to
// one).
func isLockType(t types.Type) bool {
	named := analysis.NamedType(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	if named.Obj().Pkg().Path() != "sync" {
		return false
	}
	name := named.Obj().Name()
	return name == "Mutex" || name == "RWMutex"
}

// funcState is the walker state for one function.
type funcState struct {
	c       *checker
	assumed map[lockKey]bool
	// owned holds objects initialized in this function (x := &T{...});
	// accesses through them are constructor writes, exempt.
	owned map[types.Object]bool
}

// checkFunc analyzes one function declaration.
func (c *checker) checkFunc(fd *ast.FuncDecl) {
	st := &funcState{
		c:       c,
		assumed: make(map[lockKey]bool),
		owned:   make(map[types.Object]bool),
	}
	for _, h := range analysis.HoldsFromDoc(fd.Doc) {
		if key, ok := c.resolveHold(h); ok {
			st.assumed[key] = true
		} else {
			c.pass.Reportf(fd.Pos(), "rmpvet:holds %q does not resolve to a mutex field in this package", h)
		}
	}
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		if named := analysis.NamedType(c.pass.Info.Types[fd.Recv.List[0].Type].Type); named != nil {
			for _, key := range c.typeHolds[named.Obj()] {
				st.assumed[key] = true
			}
		}
	}
	held := make(map[lockKey]lockMode)
	st.walkStmts(fd.Body.List, held)
}

// walkStmts processes a statement list in source order, threading the
// held-lock set through lock/unlock calls at this nesting level.
// Nested blocks get a copy: their lock-state changes stay local.
func (s *funcState) walkStmts(stmts []ast.Stmt, held map[lockKey]lockMode) {
	for _, stmt := range stmts {
		s.walkStmt(stmt, held)
	}
}

func (s *funcState) walkStmt(stmt ast.Stmt, held map[lockKey]lockMode) {
	switch v := stmt.(type) {
	case *ast.ExprStmt:
		if key, op, ok := s.lockOp(v.X); ok {
			applyLockOp(held, key, op)
			return
		}
		s.checkExpr(v.X, held, false)
	case *ast.DeferStmt:
		if _, op, ok := s.lockOp(v.Call); ok && (op == opUnlock || op == opRUnlock) {
			return // deferred unlock: stays held to function end
		}
		s.checkExpr(v.Call, held, false)
	case *ast.AssignStmt:
		s.trackOwned(v)
		for _, lhs := range v.Lhs {
			s.checkLHS(lhs, held)
		}
		for _, rhs := range v.Rhs {
			s.checkExpr(rhs, held, false)
		}
	case *ast.IncDecStmt:
		s.checkLHS(v.X, held)
	case *ast.DeclStmt:
		gd, ok := v.Decl.(*ast.GenDecl)
		if ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, val := range vs.Values {
						s.checkExpr(val, held, false)
					}
				}
			}
		}
	case *ast.BlockStmt:
		s.walkStmts(v.List, copyHeld(held))
	case *ast.IfStmt:
		if v.Init != nil {
			s.walkStmt(v.Init, held)
		}
		s.checkExpr(v.Cond, held, false)
		s.walkStmts(v.Body.List, copyHeld(held))
		if v.Else != nil {
			s.walkStmt(v.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		inner := copyHeld(held)
		if v.Init != nil {
			s.walkStmt(v.Init, inner)
		}
		if v.Cond != nil {
			s.checkExpr(v.Cond, inner, false)
		}
		s.walkStmts(v.Body.List, inner)
		if v.Post != nil {
			s.walkStmt(v.Post, inner)
		}
	case *ast.RangeStmt:
		s.checkExpr(v.X, held, false)
		inner := copyHeld(held)
		if v.Key != nil {
			s.checkLHS(v.Key, inner)
		}
		if v.Value != nil {
			s.checkLHS(v.Value, inner)
		}
		s.walkStmts(v.Body.List, inner)
	case *ast.SwitchStmt:
		if v.Init != nil {
			s.walkStmt(v.Init, held)
		}
		if v.Tag != nil {
			s.checkExpr(v.Tag, held, false)
		}
		for _, clause := range v.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					s.checkExpr(e, held, false)
				}
				s.walkStmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		if v.Init != nil {
			s.walkStmt(v.Init, held)
		}
		s.walkStmt(v.Assign, held)
		for _, clause := range v.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				s.walkStmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.SelectStmt:
		for _, clause := range v.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				if cc.Comm != nil {
					s.walkStmt(cc.Comm, copyHeld(held))
				}
				s.walkStmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.ReturnStmt:
		for _, r := range v.Results {
			s.checkExpr(r, held, false)
		}
	case *ast.GoStmt:
		// A new goroutine holds none of our locks; its literal body is
		// checked against an empty set.
		if lit, ok := v.Call.Fun.(*ast.FuncLit); ok {
			s.walkStmts(lit.Body.List, make(map[lockKey]lockMode))
		}
		for _, arg := range v.Call.Args {
			s.checkExpr(arg, held, false)
		}
	case *ast.SendStmt:
		s.checkExpr(v.Chan, held, false)
		s.checkExpr(v.Value, held, false)
	case *ast.LabeledStmt:
		s.walkStmt(v.Stmt, held)
	}
}

// trackOwned records variables bound to freshly constructed structs.
func (s *funcState) trackOwned(v *ast.AssignStmt) {
	if len(v.Lhs) != len(v.Rhs) {
		return
	}
	for i, lhs := range v.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		obj := s.c.pass.Info.Defs[id]
		if obj == nil {
			obj = s.c.pass.Info.Uses[id]
		}
		if obj == nil {
			continue
		}
		if isFreshStruct(v.Rhs[i]) {
			s.owned[obj] = true
		}
	}
}

// isFreshStruct recognizes &T{...}, T{...} and new(T).
func isFreshStruct(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			_, ok := v.X.(*ast.CompositeLit)
			return ok
		}
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "new" {
			return true
		}
	}
	return false
}

// lock operations.
type lockOpKind int

const (
	opLock lockOpKind = iota
	opUnlock
	opRLock
	opRUnlock
)

// lockOp recognizes x.mu.Lock()/Unlock()/RLock()/RUnlock() and plain
// mu.Lock() on a struct-field mutex, returning the lock key.
func (s *funcState) lockOp(e ast.Expr) (lockKey, lockOpKind, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return lockKey{}, 0, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockKey{}, 0, false
	}
	var op lockOpKind
	switch sel.Sel.Name {
	case "Lock":
		op = opLock
	case "Unlock":
		op = opUnlock
	case "RLock":
		op = opRLock
	case "RUnlock":
		op = opRUnlock
	default:
		return lockKey{}, 0, false
	}
	// The receiver must be a mutex-typed selector x.mu where x has a
	// named struct type.
	recv, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return lockKey{}, 0, false
	}
	tv, ok := s.c.pass.Info.Types[recv.X]
	if !ok || !isLockType(s.c.pass.Info.Types[sel.X].Type) {
		return lockKey{}, 0, false
	}
	named := analysis.NamedType(tv.Type)
	if named == nil {
		return lockKey{}, 0, false
	}
	return lockKey{typ: named.Obj(), name: recv.Sel.Name}, op, true
}

func applyLockOp(held map[lockKey]lockMode, key lockKey, op lockOpKind) {
	switch op {
	case opLock:
		held[key] = modeWrite
	case opRLock:
		held[key] = modeRead
	case opUnlock, opRUnlock:
		delete(held, key)
	}
}

// checkLHS checks an assignment target: guarded fields need the lock
// write-held.
func (s *funcState) checkLHS(lhs ast.Expr, held map[lockKey]lockMode) {
	if sel, ok := lhs.(*ast.SelectorExpr); ok {
		s.checkFieldAccess(sel, held, true)
		s.checkExpr(sel.X, held, false)
		return
	}
	if idx, ok := lhs.(*ast.IndexExpr); ok {
		s.checkExpr(idx.X, held, false)
		s.checkExpr(idx.Index, held, false)
		return
	}
	if star, ok := lhs.(*ast.StarExpr); ok {
		s.checkExpr(star.X, held, false)
	}
}

// checkExpr walks an expression tree looking for guarded-field
// accesses.
func (s *funcState) checkExpr(e ast.Expr, held map[lockKey]lockMode, write bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			// Inline closure: runs on this goroutine with current locks.
			s.walkStmts(v.Body.List, copyHeld(held))
			return false
		case *ast.SelectorExpr:
			s.checkFieldAccess(v, held, write)
		case *ast.UnaryExpr:
			if v.Op == token.AND {
				if sel, ok := v.X.(*ast.SelectorExpr); ok {
					// Taking the address of a guarded field lets it escape
					// the lock; treat as a write-strength access.
					s.checkFieldAccess(sel, held, true)
					s.checkExpr(sel.X, held, false)
					return false
				}
			}
		}
		return true
	})
}

// checkFieldAccess validates one guarded-field access.
func (s *funcState) checkFieldAccess(sel *ast.SelectorExpr, held map[lockKey]lockMode, write bool) {
	selection, ok := s.c.pass.Info.Selections[sel]
	var fieldObj *types.Var
	if ok && selection.Kind() == types.FieldVal {
		fieldObj, _ = selection.Obj().(*types.Var)
	} else if obj, ok := s.c.pass.Info.Uses[sel.Sel].(*types.Var); ok && obj.IsField() {
		fieldObj = obj // qualified access in composite contexts
	}
	if fieldObj == nil {
		return
	}
	key, guarded := s.c.guards[fieldObj]
	if !guarded {
		return
	}
	// Constructor exemption: access through a struct created here.
	if base := baseIdent(sel.X); base != nil {
		obj := s.c.pass.Info.Uses[base]
		if obj == nil {
			obj = s.c.pass.Info.Defs[base]
		}
		if obj != nil && s.owned[obj] {
			return
		}
	}
	if s.assumed[key] {
		return
	}
	owner := key.typ.Name()
	if named := analysis.NamedType(s.c.pass.Info.Types[sel.X].Type); named != nil {
		owner = named.Obj().Name()
	}
	mode, isHeld := held[key]
	if !isHeld {
		verb := "read"
		if write {
			verb = "write to"
		}
		s.c.pass.Reportf(sel.Sel.Pos(), "%s %s.%s (guarded by %s.%s) without holding the lock",
			verb, owner, fieldObj.Name(), key.typ.Name(), key.name)
		return
	}
	if write && mode == modeRead {
		s.c.pass.Reportf(sel.Sel.Pos(), "write to %s.%s while holding only the read half of %s.%s",
			owner, fieldObj.Name(), key.typ.Name(), key.name)
	}
}

// baseIdent returns the leftmost identifier of a selector chain.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		default:
			return nil
		}
	}
}

func copyHeld(held map[lockKey]lockMode) map[lockKey]lockMode {
	out := make(map[lockKey]lockMode, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}
