// Package analysis is a standard-library-only reimplementation of the
// golang.org/x/tools/go/analysis core: an Analyzer is a named check, a Pass
// hands it one type-checked package, and Report emits diagnostics. The
// container image pins the module graph (no network, no module cache), so
// the x/tools framework itself cannot be vendored in; this package keeps
// kvet's analyzers source-compatible with its API surface — an analyzer
// written against this package ports to x/tools by changing one import.
//
// Beyond the per-package core, the package defines the two interprocedural
// primitives lockheld builds on: a Fact is a datum attached to a
// package-level object (a function summary, say) that survives across
// package boundaries, and a FactStore is the driver-owned map that carries
// facts from a dependency's pass to its dependents' passes. Objects are
// keyed by their types.Func.FullName-style string rather than by
// types.Object identity because the same function is a different object in
// the package that declares it (type-checked from source) and in the
// packages that import it (resolved through compiled export data).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check. Run inspects a single package via
// the Pass and reports findings; it must not retain the Pass after return.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// "//lint:ignore <name> <reason>" suppression comments. It must be a
	// valid identifier.
	Name string
	// Doc is the one-paragraph help text: the invariant being enforced
	// and why it matters to this repo.
	Doc string
	// Run applies the check to one package.
	Run func(*Pass) error
	// NeedsFacts marks an analyzer that consumes the interprocedural fact
	// store (call-graph summaries). The driver runs the fact-building
	// phase over every loaded package before any such analyzer, and wires
	// Pass.Facts; an analyzer with NeedsFacts running under a driver that
	// skipped the fact phase sees a nil Facts and must degrade to
	// reporting nothing rather than guessing.
	NeedsFacts bool
}

// Fact is an arbitrary datum attached to one package-level object. A fact
// type is a pointer to a struct; the store copies values structurally, so
// facts must be plain data (no channels, no shared mutable state). The
// marker method keeps arbitrary types from sneaking into the store.
type Fact interface{ AFact() }

// FactStore carries facts across package passes. Keys are canonical object
// strings (types.Func.FullName for functions: "pkg/path.Name" or
// "(*pkg/path.Recv).Name"), which stay stable whether the object came from
// source type-checking or from export data.
type FactStore interface {
	// ObjectFact loads the fact of ptr's concrete type for key into ptr,
	// reporting whether one was stored.
	ObjectFact(key string, ptr Fact) bool
	// ExportObjectFact stores f under key, replacing any previous fact of
	// the same concrete type.
	ExportObjectFact(key string, f Fact)
}

// Pass carries one type-checked package through one analyzer run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Facts is the interprocedural fact store, populated for analyzers
	// with NeedsFacts by the driver's fact phase. Nil when the driver ran
	// without that phase.
	Facts FactStore
	// Report delivers one diagnostic. Wired by the driver.
	Report func(Diagnostic)
}

// Diagnostic is one finding at one source position. There are no
// suggested fixes: a finding names a defect for a person to repair.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}
