// Package parpolicy flags raw `go` statements and hand-rolled
// sync.WaitGroup fan-out outside internal/par. All data parallelism in the
// engine runs through par.Run (and par.Fork, the two-lane fork-join of
// pre-bound tasks) so that a single policy decides worker counts, chunking
// stays deterministic, and the parallel-vs-serial equivalence tests cover
// every concurrent path.
// A goroutine spawned anywhere else either duplicates that policy or
// silently escapes it.
package parpolicy

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// Analyzer flags ad-hoc concurrency outside internal/par.
var Analyzer = &analysis.Analyzer{
	Name: "parpolicy",
	Doc:  "flags raw go statements and sync.WaitGroup use outside internal/par; all fan-out must go through the shared par policy",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Go, "raw go statement: route fan-out through internal/par (par.Run / par.Fork) so worker policy and determinism stay centralized")
			case *ast.Ident:
				obj, ok := pass.TypesInfo.Uses[n].(*types.TypeName)
				if ok && obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup" {
					pass.Reportf(n.Pos(), "hand-rolled sync.WaitGroup fan-out: use par.Run / par.Fork instead")
				}
			}
			return true
		})
	}
	return nil
}
