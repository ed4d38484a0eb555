// Package goleak is a whole-program goroutine ownership analysis —
// the tree's one goroutine-leak check. Every `go` statement must
// be tied to an owner — the thing whose shutdown makes the goroutine
// exit:
//
//   - a context.Context used in the body;
//   - a stop/done channel the body receives or selects on;
//   - a WaitGroup the body signals with Done;
//   - a closable net.Conn/Listener the body blocks on;
//   - a shutdown-named boolean flag the body polls;
//   - or, for structured concurrency, a channel/WaitGroup declared in
//     the spawning function (the spawner is the owner).
//
// And — what a per-function "the loop has an exit" check cannot see —
// when the owner is a *field* of some component type T, a shutdown
// method of T (Close, Stop, Shutdown, ...) must *provably* cancel it
// on every return path: close the channel, Wait the WaitGroup, Close
// the conn, or set the flag, either directly in the method body (not
// nested inside a conditional), in a defer, inside a sync.Once.Do, or
// inside a helper the shutdown method calls unconditionally. A
// goroutine whose stop channel exists but is never closed, or is
// closed only on some paths of Close, leaks exactly when shutdown
// races a fault — the paper's recovery windows are where that bites.
//
// The body a `go` statement runs is resolved across package
// boundaries (functions are keyed by types.Func.FullName, see the
// analysis package's ProgramAnalyzer doc), so `go other.Worker(...)`
// is analyzed, not assumed bounded.
//
// goleak also reports mixed access disciplines: a struct field
// touched through sync/atomic functions in one place and by plain
// reads/writes (mutex-guarded or not) in another tears — the atomic
// access does not synchronize with the plain one. Constructor
// initialization (x := &T{...}; x.f = ...) is exempt.
package goleak

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"rmp/internal/analysis"
)

// Analyzer is the whole-program goroutine-ownership check.
var Analyzer = &analysis.ProgramAnalyzer{
	Name: "goleak",
	Doc: "every goroutine must be tied to an owner (ctx, stop channel, WaitGroup, closable conn) " +
		"that a shutdown method of its component provably cancels; mixed atomic/plain field access is flagged",
	Run: run,
}

// ownKind classifies what a field owner is and how shutdown must
// cancel it.
type ownKind int

const (
	ownChan ownKind = iota // close(T.f)
	ownWG                  // T.f.Wait()
	ownConn                // T.f.Close()
	ownFlag                // T.f = true
)

func (k ownKind) String() string {
	switch k {
	case ownChan:
		return "stop channel"
	case ownWG:
		return "WaitGroup"
	case ownConn:
		return "conn"
	case ownFlag:
		return "shutdown flag"
	}
	return "owner"
}

func (k ownKind) closeVerb() string {
	switch k {
	case ownChan:
		return "closed"
	case ownWG:
		return "waited"
	case ownConn:
		return "closed"
	case ownFlag:
		return "set"
	}
	return "cancelled"
}

// fieldRef is one candidate owner that is a struct field.
type fieldRef struct {
	key  string // pkgpath.Type.field
	typ  string // pkgpath.Type
	kind ownKind
}

// goSite is one `go` statement and the ownership evidence found in
// the body it runs.
type goSite struct {
	pos    token.Pos
	owned  bool       // ctx, structured chan/WaitGroup, closable conn/listener
	fields []fieldRef // field owners, valid if any is provably cancelled
}

// closeFact is the fixpoint fact "this function cancels owner key".
type closeFact struct {
	pos      token.Pos
	provable bool // on every return path (depth 0, defer, or once.Do)
}

// callEv is one resolvable call and whether it runs on every path.
type callEv struct {
	callee   string
	provable bool
	pos      token.Pos
}

// fnSum summarizes one function for the close-propagation fixpoint.
type fnSum struct {
	name    string
	recvTyp string // pkgpath.Type for methods, "" otherwise
	closes  map[string]closeFact
	calls   []callEv
}

// shutdownMethod matches method names that plausibly tear a component
// down; close evidence must be reachable from one of these.
var shutdownMethod = regexp.MustCompile(`(?i)^(close|shutdown|stop|halt|quit|drain|cancel|kill|terminate|abort|teardown|destroy|detach|disconnect|release|finish|end|exit|bye|wait)`)

// flagName matches boolean fields whose read signals shutdown
var flagName = regexp.MustCompile(`(?i)^(stop|stopped|stopping|done|quit|exit|halt|shutdown|shutting|closed|closing|drain|draining|cancel|cancelled|canceled|kill)`)

func run(pass *analysis.ProgramPass) error {
	ix := newIndex(pass)

	// Pass 1: summarize every function's close evidence and calls.
	sums := map[string]*fnSum{}
	var order []string
	for _, u := range pass.Units {
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := u.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				sum := summarize(u, fd, obj)
				sums[sum.name] = sum
				order = append(order, sum.name)
			}
		}
	}
	propagate(sums, order)

	// Pass 2: collect go sites and their ownership evidence.
	var sites []goSite
	for _, u := range pass.Units {
		for _, f := range u.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				body, bodyUnit := ix.goBody(u, gs)
				if body == nil {
					return true // unresolvable (interface/func value); assume bounded
				}
				site := goSite{pos: gs.Pos()}
				scanOwnership(bodyUnit, body, &site, ix)
				sites = append(sites, site)
				return true
			})
		}
	}

	// Which owner keys are provably cancelled from a shutdown method
	// of their type?
	type keyFact struct {
		provable    bool
		conditional *closeFact // best non-provable evidence in a shutdown method
		anywhere    string     // some function with evidence, shutdown or not
	}
	facts := map[string]*keyFact{}
	fact := func(key string) *keyFact {
		kf := facts[key]
		if kf == nil {
			kf = &keyFact{}
			facts[key] = kf
		}
		return kf
	}
	for _, name := range order {
		sum := sums[name]
		for key, cf := range sum.closes {
			kf := fact(key)
			if kf.anywhere == "" {
				kf.anywhere = name
			}
			if sum.recvTyp != "" && sum.recvTyp == typOf(key) && shutdownMethod.MatchString(methodName(name)) {
				if cf.provable {
					kf.provable = true
				} else if kf.conditional == nil {
					cfCopy := cf
					kf.conditional = &cfCopy
				}
			}
		}
	}

	// Report.
	reportedCond := map[token.Pos]bool{}
	for _, site := range sites {
		if site.owned {
			continue
		}
		if len(site.fields) == 0 {
			pass.Reportf(site.pos, "goroutine has no owner: tie it to a ctx, stop channel, WaitGroup, or closable conn, and cancel it on shutdown")
			continue
		}
		ok := false
		var cond, elsewhere *fieldRef
		var condFact *closeFact
		elsewhereFn := ""
		for i := range site.fields {
			fr := &site.fields[i]
			kf := facts[fr.key]
			if kf == nil {
				continue
			}
			if kf.provable {
				ok = true
				break
			}
			if kf.conditional != nil && cond == nil {
				cond, condFact = fr, kf.conditional
			}
			if kf.anywhere != "" && elsewhere == nil {
				elsewhere, elsewhereFn = fr, kf.anywhere
			}
		}
		if ok {
			continue
		}
		if cond != nil {
			if !reportedCond[condFact.pos] {
				reportedCond[condFact.pos] = true
				pass.Reportf(condFact.pos, "%s %s is %s only on some paths of this shutdown method — hoist it (or use sync.Once) so the goroutine at %s always stops",
					cond.kind, shorten(cond.key), cond.kind.closeVerb(), pass.Fset.Position(site.pos))
			}
			continue
		}
		if elsewhere != nil {
			pass.Reportf(site.pos, "goroutine's %s %s is %s only in %s — no shutdown method of %s provably reaches it",
				elsewhere.kind, shorten(elsewhere.key), elsewhere.kind.closeVerb(), shorten(elsewhereFn), shorten(typOf(elsewhere.key)))
			continue
		}
		pass.Reportf(site.pos, "goroutine is owned by %s but no shutdown method of its type ever %s it (%s)",
			shorten(ownersList(site.fields)), site.fields[0].kind.closeVerb(), ownerAdvice(site.fields[0].kind))
	}

	checkAtomicMix(pass)
	return nil
}

func ownersList(frs []fieldRef) string {
	parts := make([]string, len(frs))
	for i, fr := range frs {
		parts[i] = fr.key
	}
	sort.Strings(parts)
	return strings.Join(parts, ", ")
}

func ownerAdvice(k ownKind) string {
	switch k {
	case ownChan:
		return "close it in Close/Stop"
	case ownWG:
		return "Wait it in Close/Stop"
	case ownConn:
		return "Close it in Close/Stop"
	case ownFlag:
		return "set it in Close/Stop"
	}
	return "cancel it in Close/Stop"
}

func typOf(key string) string {
	i := strings.LastIndex(key, ".")
	if i < 0 {
		return key
	}
	return key[:i]
}

// methodName extracts the bare method name from a FullName like
// "(*pkg.T).Close" or "pkg.F".
func methodName(full string) string {
	i := strings.LastIndex(full, ".")
	if i < 0 {
		return full
	}
	return full[i+1:]
}

var pathDirs = regexp.MustCompile(`[\w.\-~]+/`)

func shorten(s string) string { return pathDirs.ReplaceAllString(s, "") }
