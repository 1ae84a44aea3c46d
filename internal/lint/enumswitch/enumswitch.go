// Package enumswitch checks that a switch over an enum-like type — a
// named basic type from this module with two or more package-scope typed
// constants — either covers every constant or carries an explicit default
// clause. Without one, adding a fourth Preconditioner (say) compiles everywhere
// and silently falls through the dispatch switches that were written for
// three; the missing-case finding surfaces every such switch the moment
// the constant lands.
//
// Coverage is by constant value, not name: aliased constants (two names,
// one value) count as one case. Switches with any non-constant case
// expression, tagless switches, and type switches are out of scope — the
// check only claims switches it can decide exactly. Types from other
// modules (go/token.Token and friends) are ignored: their constant sets
// are not this repo's contract to police.
package enumswitch

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer flags non-exhaustive switches over module-local enum types.
var Analyzer = &analysis.Analyzer{
	Name: "enumswitch",
	Doc:  "flags a switch over a module-local enum type (named basic type with >= 2 typed constants) that neither covers every constant value nor has an explicit default clause",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			check(pass, sw)
			return true
		})
	}
	return nil
}

func check(pass *analysis.Pass, sw *ast.SwitchStmt) {
	tagType := pass.TypesInfo.Types[sw.Tag].Type
	named, ok := tagType.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsBoolean != 0 {
		return
	}
	if !sameModule(named.Obj().Pkg().Path(), pass.Pkg.Path()) {
		return
	}
	consts := enumConsts(named)
	if len(consts) < 2 {
		return
	}

	covered := make(map[string]bool)
	for _, cl := range sw.Body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			return
		}
		if cc.List == nil {
			return // explicit default: the switch handles the future
		}
		for _, e := range cc.List {
			tv := pass.TypesInfo.Types[e]
			if tv.Value == nil {
				return // dynamic case: coverage is undecidable, stay quiet
			}
			covered[tv.Value.ExactString()] = true
		}
	}

	var missing []string
	seen := make(map[string]bool)
	for _, c := range consts {
		v := c.Val().ExactString()
		if covered[v] || seen[v] {
			continue
		}
		seen[v] = true
		missing = append(missing, c.Name())
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	pass.Reportf(sw.Pos(), "switch on %s is not exhaustive: missing %s; add the cases or an explicit default",
		named.Obj().Name(), strings.Join(missing, ", "))
}

// sameModule compares the first path segment, the module boundary for
// this repo's single-module layout (and for fixture modules alike).
func sameModule(a, b string) bool {
	return firstSegment(a) == firstSegment(b)
}

func firstSegment(path string) string {
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return path
}

// enumConsts lists the package-scope constants of exactly type n, in
// scope (sorted-name) order.
func enumConsts(n *types.Named) []*types.Const {
	scope := n.Obj().Pkg().Scope()
	var out []*types.Const
	for _, name := range scope.Names() {
		if c, ok := scope.Lookup(name).(*types.Const); ok && types.Identical(c.Type(), n) {
			out = append(out, c)
		}
	}
	return out
}
