// Package lockheld forbids blocking while a sync.Mutex or sync.RWMutex is
// held: no channel operation, sleep, unbounded wait, file/network I/O, or
// acquisition of a second lock inside a critical section. This is the
// deadlock-and-stall shape the serve drain path is most exposed to — a
// worker that blocks on I/O while holding a job's mutex stalls every
// status poll, and two goroutines acquiring two mutexes in opposite order
// deadlock outright. Critical sections in this repo are meant to be
// pointer-swap short; anything slower belongs outside the lock.
//
// Lock regions are tracked intra-procedurally per receiver expression
// ("s.mu", "j.mu"): a region opens at mu.Lock()/RLock() and closes at the
// matching mu.Unlock()/RUnlock() in the same statement sequence; a
// deferred unlock holds the region open to the end of the function. What
// a call inside a region may do comes from the callgraph fact store, so a
// blocking operation three calls and two packages away is still caught.
// Branches are walked with a copy of the held set (a lock taken or
// released inside an if does not leak into the fall-through), and `go`
// statement bodies are skipped — the spawned goroutine does not hold the
// caller's locks.
package lockheld

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/callgraph"
)

// Analyzer flags blocking operations inside mutex critical sections.
var Analyzer = &analysis.Analyzer{
	Name:       "lockheld",
	Doc:        "flags blocking ops (chan op, sleep, wait, I/O, nested Lock) while a sync.Mutex/RWMutex is held; a blocked critical section stalls every contender and nested acquisition risks deadlock",
	Run:        run,
	NeedsFacts: true,
}

// heldLock is one open critical section: the receiver expression the lock
// was taken on and where.
type heldLock struct {
	recv string
	pos  token.Pos
}

type checker struct {
	pass    *analysis.Pass
	bounded map[string]bool
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass, bounded: make(map[string]bool, len(callgraph.DefaultBounded))}
	for _, k := range callgraph.DefaultBounded {
		c.bounded[k] = true
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if decl, ok := d.(*ast.FuncDecl); ok && decl.Body != nil {
				c.walkStmts(decl.Body.List, nil)
			}
		}
	}
	return nil
}

// lockOp classifies a statement-level call as a lock acquisition or
// release on a receiver expression.
type lockKind int

const (
	lockNone lockKind = iota
	lockAcquire
	lockRelease
)

func lockOp(info *types.Info, e ast.Expr) (string, lockKind) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", lockNone
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", lockNone
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", lockNone
	}
	switch fn.FullName() {
	case "(*sync.Mutex).Lock", "(*sync.RWMutex).Lock", "(*sync.RWMutex).RLock":
		return types.ExprString(sel.X), lockAcquire
	case "(*sync.Mutex).Unlock", "(*sync.RWMutex).Unlock", "(*sync.RWMutex).RUnlock":
		return types.ExprString(sel.X), lockRelease
	}
	return "", lockNone
}

// walkStmts threads the held set through a statement sequence. The slice
// is mutated in place for straight-line flow; branches get copies.
func (c *checker) walkStmts(list []ast.Stmt, held []heldLock) []heldLock {
	for _, s := range list {
		held = c.walkStmt(s, held)
	}
	return held
}

func copyHeld(held []heldLock) []heldLock {
	return append([]heldLock(nil), held...)
}

func (c *checker) walkStmt(s ast.Stmt, held []heldLock) []heldLock {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if recv, kind := lockOp(c.pass.TypesInfo, s.X); kind != lockNone {
			if kind == lockAcquire {
				// Taking a second lock inside a critical section is itself
				// a blocking op (and a deadlock risk); checkExpr flags it.
				c.checkExpr(s.X, held)
				return append(held, heldLock{recv: recv, pos: s.Pos()})
			}
			for i := len(held) - 1; i >= 0; i-- {
				if held[i].recv == recv {
					return append(copyHeld(held[:i]), held[i+1:]...)
				}
			}
			return held
		}
		c.checkExpr(s.X, held)
	case *ast.DeferStmt:
		// A deferred unlock keeps the region open to function end — held
		// stays as is. Other deferred calls run at return; only their
		// argument expressions evaluate here.
		for _, a := range s.Call.Args {
			c.checkExpr(a, held)
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			c.checkExpr(e, held)
		}
		for _, e := range s.Lhs {
			c.checkExpr(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.checkExpr(e, held)
		}
	case *ast.IncDecStmt:
		c.checkExpr(s.X, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						c.checkExpr(e, held)
					}
				}
			}
		}
	case *ast.SendStmt:
		if len(held) > 0 {
			c.flag(s.Arrow, "channel send", held)
		}
		c.checkExpr(s.Chan, held)
		c.checkExpr(s.Value, held)
	case *ast.GoStmt:
		// The new goroutine does not hold the caller's locks; only the
		// argument expressions evaluate under them.
		for _, a := range s.Call.Args {
			c.checkExpr(a, held)
		}
	case *ast.LabeledStmt:
		return c.walkStmt(s.Stmt, held)
	case *ast.BlockStmt:
		return c.walkStmts(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held = c.walkStmt(s.Init, held)
		}
		c.checkExpr(s.Cond, held)
		c.walkStmts(s.Body.List, copyHeld(held))
		if s.Else != nil {
			c.walkStmt(s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			held = c.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			c.checkExpr(s.Cond, held)
		}
		body := copyHeld(held)
		body = c.walkStmts(s.Body.List, body)
		if s.Post != nil {
			c.walkStmt(s.Post, body)
		}
	case *ast.RangeStmt:
		if tv, ok := c.pass.TypesInfo.Types[s.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan && len(held) > 0 {
				c.flag(s.For, "range over channel", held)
			}
		}
		c.checkExpr(s.X, held)
		c.walkStmts(s.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = c.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			c.checkExpr(s.Tag, held)
		}
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				for _, e := range cl.List {
					c.checkExpr(e, held)
				}
				c.walkStmts(cl.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held = c.walkStmt(s.Init, held)
		}
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				c.walkStmts(cl.Body, copyHeld(held))
			}
		}
	case *ast.SelectStmt:
		if len(held) > 0 && !hasDefault(s) {
			c.flag(s.Select, "select without default", held)
		}
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CommClause); ok {
				c.walkStmts(cl.Body, copyHeld(held))
			}
		}
	}
	return held
}

func hasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// checkExpr flags blocking operations inside an expression evaluated with
// locks held: direct blocking calls (stdlib table, nested Lock), channel
// receives, and calls whose interprocedural summary says they may block.
func (c *checker) checkExpr(e ast.Expr, held []heldLock) {
	if len(held) == 0 || e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // defined here, not necessarily run here
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				c.flag(n.OpPos, "channel receive", held)
			}
		case *ast.CallExpr:
			cls, what, callee := callgraph.ClassifyCall(c.pass.TypesInfo, n, c.bounded)
			switch {
			case cls != 0:
				c.flag(n.Pos(), what+" ["+cls.String()+"]", held)
			case callee != "":
				if c.pass.Facts == nil {
					return true
				}
				var fact callgraph.FuncFact
				if c.pass.Facts.ObjectFact(callee, &fact) && fact.MayBlock != 0 {
					c.flag(n.Pos(), "call to "+callee+" [may "+fact.MayBlock.String()+"]", held)
				}
			}
			if c.pass.Facts == nil {
				return true
			}
			for _, cb := range callgraph.LaneCallbacks(c.pass.TypesInfo, n, c.bounded) {
				var fact callgraph.FuncFact
				if c.pass.Facts.ObjectFact(cb, &fact) && fact.MayBlock != 0 {
					c.flag(n.Pos(), "fork-join running "+cb+" [may "+fact.MayBlock.String()+"]", held)
				}
			}
		}
		return true
	})
}

// flag reports one blocking op under the earliest-held lock.
func (c *checker) flag(pos token.Pos, what string, held []heldLock) {
	h := held[0]
	line := c.pass.Fset.Position(h.pos).Line
	c.pass.Reportf(pos, "%s while %s is held (locked at line %d); blocking inside a critical section stalls every contender — move it outside the lock",
		what, h.recv, line)
}
