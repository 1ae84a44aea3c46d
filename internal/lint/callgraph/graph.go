package callgraph

import (
	"go/ast"
	"reflect"
	"sort"

	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
)

// Store is the concrete analysis.FactStore: facts bucketed by dynamic
// type, then by canonical object key. One Store spans one driver
// invocation, so facts exported while analyzing a dependency are visible
// while analyzing its dependents.
type Store struct {
	facts map[string]map[string]analysis.Fact
}

// NewStore returns an empty fact store.
func NewStore() *Store {
	return &Store{facts: make(map[string]map[string]analysis.Fact)}
}

// ExportObjectFact stores f under key, replacing any previous fact of the
// same concrete type.
func (s *Store) ExportObjectFact(key string, f analysis.Fact) {
	if key == "" || f == nil {
		return
	}
	tn := reflect.TypeOf(f).String()
	m := s.facts[tn]
	if m == nil {
		m = make(map[string]analysis.Fact)
		s.facts[tn] = m
	}
	m[key] = f
}

// ObjectFact loads the fact of ptr's concrete type for key into ptr.
func (s *Store) ObjectFact(key string, ptr analysis.Fact) bool {
	if key == "" || ptr == nil {
		return false
	}
	f, ok := s.facts[reflect.TypeOf(ptr).String()][key]
	if !ok {
		return false
	}
	reflect.ValueOf(ptr).Elem().Set(reflect.ValueOf(f).Elem())
	return true
}

// Graph is the whole-program view over the FuncFacts of one driver
// invocation. It shares fact pointers with the Store, so the MayBlock
// closure Analyze computes is visible through both.
type Graph struct {
	funcs map[string]*FuncFact
	order []string // sorted keys, for deterministic iteration
}

// Func returns the summary for key, or nil.
func (g *Graph) Func(key string) *FuncFact { return g.funcs[key] }

// Analyze builds function summaries for every package (visited in
// dependency order so a summary is exported before any dependent's call
// sites reference it), exports them into store, then propagates MayBlock
// through the call edges to a fixpoint. Calls to the bounded keys (see
// DefaultBounded) are neither blocking ops nor edges.
func Analyze(pkgs []*load.Package, store *Store, bounded []string) *Graph {
	isBounded := make(map[string]bool, len(bounded))
	for _, k := range bounded {
		isBounded[k] = true
	}
	g := &Graph{funcs: make(map[string]*FuncFact)}
	for _, pkg := range depOrder(pkgs) {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				key := FuncKey(pkg.Info, decl)
				if key == "" {
					continue
				}
				f := summarize(pkg, decl, key, isBounded)
				g.funcs[key] = f
				store.ExportObjectFact(key, f)
			}
		}
	}
	g.order = make([]string, 0, len(g.funcs))
	for k := range g.funcs {
		g.order = append(g.order, k)
	}
	sort.Strings(g.order)
	g.closeMayBlock()
	return g
}

// closeMayBlock computes MayBlock to a fixpoint; cycles in the call graph
// converge because the union only grows.
func (g *Graph) closeMayBlock() {
	for _, k := range g.order {
		g.funcs[k].MayBlock = g.funcs[k].Blocks
	}
	for changed := true; changed; {
		changed = false
		for _, k := range g.order {
			f := g.funcs[k]
			for _, c := range f.Callees {
				if callee := g.funcs[c]; callee != nil {
					if merged := f.MayBlock | callee.MayBlock; merged != f.MayBlock {
						f.MayBlock = merged
						changed = true
					}
				}
			}
		}
	}
}

// depOrder returns pkgs sorted so that every package follows the packages
// it imports (ties broken by import path, so the order is deterministic).
// Packages outside the analyzed set are irrelevant: their functions arrive
// as export data only and produce no summaries.
func depOrder(pkgs []*load.Package) []*load.Package {
	byPath := make(map[string]*load.Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	sorted := make([]*load.Package, 0, len(pkgs))
	state := make(map[string]int, len(pkgs)) // 0 unvisited, 1 visiting, 2 done
	var visit func(p *load.Package)
	visit = func(p *load.Package) {
		switch state[p.ImportPath] {
		case 1, 2:
			return
		}
		state[p.ImportPath] = 1
		imps := p.Types.Imports()
		paths := make([]string, 0, len(imps))
		for _, imp := range imps {
			paths = append(paths, imp.Path())
		}
		sort.Strings(paths)
		for _, path := range paths {
			if dep, ok := byPath[path]; ok {
				visit(dep)
			}
		}
		state[p.ImportPath] = 2
		sorted = append(sorted, p)
	}
	roots := make([]*load.Package, len(pkgs))
	copy(roots, pkgs)
	sort.Slice(roots, func(i, j int) bool { return roots[i].ImportPath < roots[j].ImportPath })
	for _, p := range roots {
		visit(p)
	}
	return sorted
}
