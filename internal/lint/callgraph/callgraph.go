// Package callgraph builds kvet's one interprocedural fact layer: a
// per-function summary (which blocking operations its body performs, whom
// it calls) exported per package object, closed over a package-spanning
// call graph into a may-block fact. lockheld reads it to catch a blocking
// call made under a mutex even when the blocking op is several calls and
// packages away.
//
// Facts are keyed by the canonical object string (types.Func.FullName),
// not by object identity: the load package type-checks target packages
// from source but resolves their imports through compiled export data, so
// the same function is a different types.Object on each side of a package
// boundary while its FullName is identical. Exporting the summary under
// that key when the defining package is analyzed and looking it up by the
// same key at every cross-package call site is what carries the analysis
// across package boundaries.
//
// The model is deliberately a summary, not a proof. Dynamic calls through
// function values and interface methods are edges to nowhere (no fact ever
// materializes for them), and ops inside `go` statements count against the
// enclosing function even though they block a different goroutine.
// Function literals are inlined into their enclosing declaration, which
// recovers the repo's dominant callback idiom (par.Run(w, n, func(...){...})
// attributes the closure's ops to the caller, where they belong). The
// other callbacks a bounded fork-join runs are followed too (see
// LaneCallbacks): a function or method value handed to it, and the Run
// method of a pre-bound par.Task handed to par.Fork, become edges of the
// function that forks.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/load"
)

// Class is a bitmask of blocking-operation classes. lockheld cares about
// all of them, nested Lock included.
type Class uint8

const (
	// Chan marks channel sends, receives, selects without a default, and
	// ranges over channels.
	Chan Class = 1 << iota
	// Sleep marks time.Sleep and timer/ticker waits.
	Sleep
	// Wait marks WaitGroup/Cond joins with no deadline.
	Wait
	// Lock marks mutex acquisition.
	Lock
	// IO marks file, network and process I/O.
	IO
)

// String spells the classes in a fixed order, for diagnostics.
func (c Class) String() string {
	var parts []string
	for _, e := range [...]struct {
		bit  Class
		name string
	}{{Chan, "chan-op"}, {Sleep, "sleep"}, {Wait, "wait"}, {Lock, "lock"}, {IO, "I/O"}} {
		if c&e.bit != 0 {
			parts = append(parts, e.name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// FuncFact is the per-function interprocedural summary. The builder fills
// the direct fields; Analyze fills MayBlock.
type FuncFact struct {
	// Key is the canonical object string the fact is stored under.
	Key string
	// Blocks is the union of blocking classes of ops in the function body
	// itself (function literals included).
	Blocks Class
	// Callees lists the canonical keys of statically resolved calls,
	// sorted and deduplicated.
	Callees []string
	// MayBlock is the closure union: Blocks of this function and of every
	// function reachable from it through resolved calls.
	MayBlock Class
}

// AFact marks FuncFact as an analysis.Fact.
func (*FuncFact) AFact() {}

// DefaultBounded lists the repo's sanctioned bounded fork-join primitives:
// they contain waits and channel ops, but return as soon as their own
// CPU-bound work finishes, so a call to one is CPU-bound work, not a
// blocking wait. What the work itself may do is followed through
// LaneCallbacks.
var DefaultBounded = []string{
	"repro/internal/par.Run",
	"repro/internal/par.Fork",
}

// stdlibBlocking classifies standard-library calls by canonical key. The
// table is a policy, not an enumeration of truth: fmt.Fprintf to a
// bytes.Buffer does not block, so writer-parameterized functions stay out;
// encoding/json Encode/Decode are in because every use in this repo wraps
// a file or socket.
var stdlibBlocking = map[string]Class{
	"time.Sleep": Sleep,

	"(*sync.WaitGroup).Wait": Wait,
	"(*sync.Cond).Wait":      Wait,

	"(*sync.Mutex).Lock":    Lock,
	"(*sync.RWMutex).Lock":  Lock,
	"(*sync.RWMutex).RLock": Lock,

	"os.Create": IO, "os.Open": IO, "os.OpenFile": IO,
	"os.ReadFile": IO, "os.WriteFile": IO, "os.ReadDir": IO,
	"os.Remove": IO, "os.RemoveAll": IO, "os.Rename": IO,
	"os.Mkdir": IO, "os.MkdirAll": IO, "os.MkdirTemp": IO,
	"(*os.File).Read": IO, "(*os.File).ReadAt": IO,
	"(*os.File).Write": IO, "(*os.File).WriteAt": IO,
	"(*os.File).WriteString": IO, "(*os.File).Close": IO,
	"(*os.File).Sync": IO,

	"io.Copy": IO, "io.CopyN": IO, "io.ReadAll": IO, "io.ReadFull": IO,

	"(*bufio.Writer).Flush": IO,

	"net.Dial": IO, "net.DialTimeout": IO, "net.Listen": IO,

	"net/http.Get": IO, "net/http.Post": IO, "net/http.Head": IO,
	"net/http.PostForm": IO, "net/http.ListenAndServe": IO,
	"(*net/http.Client).Do": IO, "(*net/http.Client).Get": IO,
	"(*net/http.Client).Post": IO, "(*net/http.Client).Head": IO,
	"(*net/http.Client).PostForm":       IO,
	"(*net/http.Server).Serve":          IO,
	"(*net/http.Server).ListenAndServe": IO,

	"(*os/exec.Cmd).Run": IO, "(*os/exec.Cmd).Output": IO,
	"(*os/exec.Cmd).CombinedOutput": IO, "(*os/exec.Cmd).Wait": Wait,

	"(*encoding/json.Encoder).Encode": IO,
	"(*encoding/json.Decoder).Decode": IO,

	"fmt.Print": IO, "fmt.Printf": IO, "fmt.Println": IO,
	"fmt.Scan": IO, "fmt.Scanf": IO, "fmt.Scanln": IO,
}

// ClassifyCall resolves call's static callee and classifies it: a blocking
// class when the callee is in the stdlib table, the callee's canonical key
// when it is a project function worth an edge, or neither (dynamic call or
// uninteresting stdlib). bounded suppresses the named keys.
func ClassifyCall(info *types.Info, call *ast.CallExpr, bounded map[string]bool) (cls Class, what string, callee string) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return 0, "", ""
	}
	key := fn.FullName()
	if bounded[key] {
		return 0, "", ""
	}
	if c, ok := stdlibBlocking[key]; ok {
		return c, key, ""
	}
	if fn.Pkg() == nil {
		return 0, "", "" // builtins (error.Error and friends)
	}
	// Every other resolved callee becomes an edge. Edges into packages
	// outside the analyzed set (stdlib included) are inert: no fact ever
	// materializes under their key, so traversal stops there.
	return 0, "", key
}

// LaneCallbacks returns the canonical keys of the functions a call to a
// bounded fork-join will run on its lanes: every argument that is a
// function or method value names one, and every argument of a concrete
// type with a Run method (a pre-bound par.Task, such as &s.task) names
// that method. Function literals are left out: their bodies are already
// inlined into the enclosing declaration. Calls to anything not bounded
// return nil.
func LaneCallbacks(info *types.Info, call *ast.CallExpr, bounded map[string]bool) []string {
	fn := calleeFunc(info, call)
	if fn == nil || !bounded[fn.FullName()] {
		return nil
	}
	var keys []string
	for _, arg := range call.Args {
		var ref *ast.Ident
		switch e := ast.Unparen(arg).(type) {
		case *ast.Ident:
			ref = e
		case *ast.SelectorExpr:
			ref = e.Sel
		}
		if ref != nil {
			if f, ok := info.Uses[ref].(*types.Func); ok {
				keys = append(keys, f.FullName())
				continue
			}
		}
		tv, ok := info.Types[arg]
		if !ok || types.IsInterface(tv.Type) {
			continue
		}
		if run, ok := lookupRun(tv.Type); ok {
			keys = append(keys, run.FullName())
		}
	}
	return keys
}

// lookupRun returns t's Run method, if it has one.
func lookupRun(t types.Type) (*types.Func, bool) {
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, "Run")
	f, ok := obj.(*types.Func)
	return f, ok
}

// calleeFunc resolves the *types.Func a call statically dispatches to, or
// nil for dynamic calls (function values, interface methods resolve to the
// abstract method — kept, it still yields a stable key even if no fact
// ever lands there).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// summarize walks one function declaration and produces its direct fact.
func summarize(pkg *load.Package, decl *ast.FuncDecl, key string, bounded map[string]bool) *FuncFact {
	f := &FuncFact{Key: key}
	if decl.Body == nil {
		return f
	}
	callees := map[string]bool{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			cls, _, callee := ClassifyCall(pkg.Info, n, bounded)
			f.Blocks |= cls
			if callee != "" {
				callees[callee] = true
			}
			for _, cb := range LaneCallbacks(pkg.Info, n, bounded) {
				callees[cb] = true
			}
		case *ast.SendStmt:
			f.Blocks |= Chan
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				f.Blocks |= Chan
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				f.Blocks |= Chan
			}
		case *ast.RangeStmt:
			if tv, ok := pkg.Info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					f.Blocks |= Chan
				}
			}
		}
		return true
	})
	f.Callees = make([]string, 0, len(callees))
	for k := range callees {
		f.Callees = append(f.Callees, k)
	}
	sort.Strings(f.Callees)
	return f
}

// selectHasDefault reports whether sel can always proceed immediately.
func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// FuncKey returns the canonical key for the function declared by decl, or
// "" when the declaration has no resolvable object.
func FuncKey(info *types.Info, decl *ast.FuncDecl) string {
	fn, _ := info.Defs[decl.Name].(*types.Func)
	if fn == nil {
		return ""
	}
	return fn.FullName()
}
