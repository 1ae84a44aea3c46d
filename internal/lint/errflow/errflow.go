// Package errflow flags error values that are produced but never
// consulted: an error-typed local that is assigned and never read again
// (the call's failure is silently dropped), an error overwritten by a
// later assignment in the same block before anything reads it, and a `:=`
// that shadows an error variable of the same name from an enclosing scope
// (the classic bug where the inner err is checked but the outer one is
// returned).
//
// The analysis is per function and position-ordered rather than a full
// CFG: a write is "checked" if any read of the variable follows it. Two
// refinements keep the common idioms quiet: a write inside a loop body
// counts as read if the loop body reads the variable anywhere (the next
// iteration sees it), and any reference from a nested function literal
// counts as a read (the closure may run at any time). Named result
// parameters are skipped entirely — a bare return reads them invisibly.
package errflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/lint/analysis"
)

// Analyzer flags assigned-then-unchecked and shadowed error values.
var Analyzer = &analysis.Analyzer{
	Name: "errflow",
	Doc:  "flags error values assigned but never checked, overwritten before a check, or shadowed by an inner := of the same name; every dropped error hides a failure path",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if decl, ok := d.(*ast.FuncDecl); ok && decl.Body != nil {
				checkFunc(pass, decl.Type, decl.Body, true)
			}
		}
	}
	return nil
}

// checkFunc analyzes one function body. Nested function literals are
// queued and analyzed as their own functions; references from them into
// this body count as reads. topLevel gates the shadow rule: closures
// redeclare err deliberately often enough that only same-function shadows
// are worth reporting.
func checkFunc(pass *analysis.Pass, ftype *ast.FuncType, body *ast.BlockStmt, topLevel bool) {
	named := namedResults(pass, ftype)

	var lits []*ast.FuncLit
	writes := map[types.Object][]writeEvent{}
	reads := map[types.Object][]token.Pos{}
	writeIdents := map[*ast.Ident]bool{}
	var loops []span

	// Pass 1: assignments, loop spans, and nested literals — all at this
	// function's level (literals are opaque here). Init-statement defines
	// (if err := ...; err != nil) are idiomatic scoping, not shadow bugs;
	// preorder traversal guarantees the parent registers its Init before
	// the AssignStmt child is visited.
	initStmts := map[ast.Stmt]bool{}
	inspectSkippingLits(body, &lits, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.ForStmt:
			loops = append(loops, span{n.Body.Pos(), n.Body.End()})
			initStmts[n.Init] = true
		case *ast.RangeStmt:
			loops = append(loops, span{n.Body.Pos(), n.Body.End()})
		case *ast.IfStmt:
			initStmts[n.Init] = true
		case *ast.SwitchStmt:
			initStmts[n.Init] = true
		case *ast.TypeSwitchStmt:
			initStmts[n.Init] = true
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				id, obj := localErrorVar(pass, lhs, n.Tok)
				if id == nil || named[obj] {
					continue
				}
				// A variable captured from an enclosing function is not ours
				// to judge: writes to it are observable outside this body.
				if obj.Pos() < ftype.Pos() || obj.Pos() >= body.End() {
					continue
				}
				writeIdents[id] = true
				writes[obj] = append(writes[obj], writeEvent{
					id: id, stmt: n,
					// Order by statement end so reads on the RHS of the
					// same assignment precede their own write.
					order: n.End(),
				})
			}
			if topLevel && n.Tok == token.DEFINE && !initStmts[ast.Stmt(n)] {
				checkShadow(pass, n)
			}
		}
	})

	// Pass 2: reads — every use of a tracked object that is not one of the
	// write idents, plus every reference from a nested literal.
	tracked := map[types.Object]bool{}
	for obj := range writes {
		tracked[obj] = true
	}
	inspectSkippingLits(body, nil, func(n ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok || writeIdents[id] {
			return
		}
		if obj := pass.TypesInfo.Uses[id]; obj != nil && tracked[obj] {
			reads[obj] = append(reads[obj], id.Pos())
		}
	})
	for _, lit := range lits {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := pass.TypesInfo.Uses[id]; obj != nil && tracked[obj] {
					reads[obj] = append(reads[obj], lit.Pos(), id.Pos())
				}
			}
			return true
		})
	}

	flagUnchecked(pass, writes, reads, loops)
	flagOverwrites(pass, body, writes, reads)

	for _, lit := range lits {
		checkFunc(pass, lit.Type, lit.Body, false)
	}
}

type span struct{ lo, hi token.Pos }

func (s span) contains(p token.Pos) bool { return s.lo <= p && p < s.hi }

type writeEvent struct {
	id    *ast.Ident
	stmt  *ast.AssignStmt
	order token.Pos
}

// inspectSkippingLits walks body without descending into function
// literals, optionally collecting them.
func inspectSkippingLits(body *ast.BlockStmt, lits *[]*ast.FuncLit, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			if lits != nil {
				*lits = append(*lits, lit)
			}
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// localErrorVar resolves lhs to a function-local error-typed variable
// being written (defined or assigned), or nil.
func localErrorVar(pass *analysis.Pass, lhs ast.Expr, tok token.Token) (*ast.Ident, types.Object) {
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil, nil
	}
	var obj types.Object
	if tok == token.DEFINE {
		obj = pass.TypesInfo.Defs[id]
	}
	if obj == nil {
		obj = pass.TypesInfo.Uses[id]
	}
	if obj == nil || obj.Pkg() == nil {
		return nil, nil
	}
	if _, isVar := obj.(*types.Var); !isVar {
		return nil, nil
	}
	if obj.Parent() == obj.Pkg().Scope() {
		return nil, nil // package-level: other functions may read it
	}
	if !isErrorType(obj.Type()) {
		return nil, nil
	}
	return id, obj
}

func isErrorType(t types.Type) bool {
	return types.AssignableTo(t, types.Universe.Lookup("error").Type())
}

// namedResults collects the function's named result objects; writes to
// them are invisible reads away (a bare return), so they are exempt.
func namedResults(pass *analysis.Pass, ftype *ast.FuncType) map[types.Object]bool {
	out := map[types.Object]bool{}
	if ftype.Results == nil {
		return out
	}
	for _, field := range ftype.Results.List {
		for _, name := range field.Names {
			if obj := pass.TypesInfo.Defs[name]; obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}

// flagUnchecked reports writes with no read anywhere after them (with the
// loop-body rescue).
func flagUnchecked(pass *analysis.Pass, writes map[types.Object][]writeEvent, reads map[types.Object][]token.Pos, loops []span) {
	objs := sortedObjs(writes)
	for _, obj := range objs {
		rs := reads[obj]
		sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
		for _, w := range writes[obj] {
			if readAfter(rs, w.order) {
				continue
			}
			if loopRescued(loops, rs, w.id.Pos()) {
				continue
			}
			pass.Reportf(w.id.Pos(), "%s assigned and never checked; the failure this call can report is silently dropped", w.id.Name)
		}
	}
}

func readAfter(sortedReads []token.Pos, after token.Pos) bool {
	i := sort.Search(len(sortedReads), func(i int) bool { return sortedReads[i] > after })
	return i < len(sortedReads)
}

// loopRescued reports a write inside a loop whose body reads the variable
// anywhere — the next iteration observes the value.
func loopRescued(loops []span, reads []token.Pos, writePos token.Pos) bool {
	for _, l := range loops {
		if !l.contains(writePos) {
			continue
		}
		for _, r := range reads {
			if l.contains(r) {
				return true
			}
		}
	}
	return false
}

// flagOverwrites reports sequential same-block overwrites: stmt i assigns
// obj, stmt j assigns it again, and no statement between reads it (return
// and branch statements are barriers — control may leave the block).
func flagOverwrites(pass *analysis.Pass, body *ast.BlockStmt, writes map[types.Object][]writeEvent, reads map[types.Object][]token.Pos) {
	// Index writes by their statement for block scanning.
	byStmt := map[ast.Stmt][]writeEvent{}
	for _, obj := range sortedObjs(writes) {
		for _, w := range writes[obj] {
			byStmt[ast.Stmt(w.stmt)] = append(byStmt[ast.Stmt(w.stmt)], w)
		}
	}
	objOf := func(w writeEvent) types.Object {
		if o := pass.TypesInfo.Defs[w.id]; o != nil {
			return o
		}
		return pass.TypesInfo.Uses[w.id]
	}
	var scanList func(list []ast.Stmt)
	scanList = func(list []ast.Stmt) {
		last := map[types.Object]writeEvent{}
		barrier := func() { last = map[types.Object]writeEvent{} }
		for _, s := range list {
			switch s := s.(type) {
			case *ast.ReturnStmt, *ast.BranchStmt:
				barrier()
			case *ast.AssignStmt:
				for _, w := range byStmt[s] {
					obj := objOf(w)
					if prev, ok := last[obj]; ok && !readBetween(reads[obj], prev.order, w.stmt.Pos()) && !rhsReads(pass, w.stmt, obj) {
						line := pass.Fset.Position(w.id.Pos()).Line
						pass.Reportf(prev.id.Pos(), "%s overwritten at line %d before this value is checked", prev.id.Name, line)
					}
					last[obj] = w
				}
			default:
				// Nested blocks both read and write unpredictably from this
				// list's point of view; treat any non-trivial statement that
				// contains a nested block as a barrier for simplicity.
				if containsBlock(s) {
					barrier()
				}
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BlockStmt:
			scanList(n.List)
		case *ast.CaseClause:
			scanList(n.Body)
		case *ast.CommClause:
			scanList(n.Body)
		}
		return true
	})
}

func readBetween(reads []token.Pos, lo, hi token.Pos) bool {
	for _, r := range reads {
		if r > lo && r < hi {
			return true
		}
	}
	return false
}

// rhsReads reports whether the assignment's right side mentions obj (an
// overwrite like err = fmt.Errorf("...: %w", err) consumes the value).
func rhsReads(pass *analysis.Pass, s *ast.AssignStmt, obj types.Object) bool {
	for _, e := range s.Rhs {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

func containsBlock(s ast.Stmt) bool {
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.BlockStmt, *ast.FuncLit:
			found = true
		}
		return !found
	})
	return found
}

// checkShadow flags a := that redeclares an error variable visible from
// an enclosing scope of the same function.
func checkShadow(pass *analysis.Pass, n *ast.AssignStmt) {
	for _, lhs := range n.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil || !isErrorType(obj.Type()) {
			continue
		}
		scope := pass.Pkg.Scope().Innermost(id.Pos())
		if scope == nil {
			continue
		}
		_, outer := scope.LookupParent(id.Name, id.Pos())
		if outer == nil || outer == obj || outer.Parent() == pass.Pkg.Scope() {
			continue
		}
		ov, ok := outer.(*types.Var)
		if !ok || !isErrorType(ov.Type()) {
			continue
		}
		// Redeclaring err in a nested scope is routine Go; the shadow only
		// bites when the outer value is consulted after the inner scope
		// closes — that read sees a value the checks in here never touched.
		inner := obj.Parent()
		if inner == nil || !usedAfter(pass, ov, inner.End()) {
			continue
		}
		line := pass.Fset.Position(outer.Pos()).Line
		pass.Reportf(id.Pos(), "%s shadows the %s declared at line %d; checks on the inner value leave the outer one unchecked", id.Name, id.Name, line)
	}
}

// usedAfter reports whether obj is referenced anywhere past pos (scanning
// the file that declares it; a local's references cannot leave its file).
func usedAfter(pass *analysis.Pass, obj types.Object, pos token.Pos) bool {
	for _, f := range pass.Files {
		if f.Pos() > obj.Pos() || obj.Pos() >= f.End() {
			continue
		}
		found := false
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Pos() > pos && pass.TypesInfo.Uses[id] == obj {
				found = true
			}
			return !found
		})
		return found
	}
	return false
}

// sortedObjs orders map keys by declaration position so reports come out
// deterministically.
func sortedObjs(writes map[types.Object][]writeEvent) []types.Object {
	objs := make([]types.Object, 0, len(writes))
	for obj := range writes {
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].Pos() < objs[j].Pos() })
	return objs
}
