// Package load turns package patterns into type-checked syntax trees using
// only the standard library and the go command. `go list -export` compiles
// the transitive dependencies of the requested patterns and reports the
// export-data file of each one (entirely from the local build cache — no
// network); the gc importer then resolves imports through those files while
// the target packages themselves are parsed and type-checked from source,
// comments included, ready for analysis passes.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
)

// Package is one parsed and type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	// Files holds the parsed non-test Go files of the package, with
	// comments, in go list order.
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listEntry mirrors the go list -json fields we consume.
type listEntry struct {
	Dir        string
	ImportPath string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Incomplete bool
	Error      *struct{ Err string }
}

// Config adjusts a Load call.
type Config struct {
	// Dir is the working directory for the go command (the module root in
	// normal use). Empty means the current directory.
	Dir string
}

// cache memoizes Load results for the process lifetime, keyed by the
// resolved working directory and patterns. One kvet invocation (or one
// test binary) then pays the go list + parse + typecheck cost once per
// distinct pattern set, no matter how many analyzers or subtests ask for
// the same packages. Results are shared, not copied: callers must treat
// the returned packages as read-only, which every analysis pass already
// does.
var cache struct {
	mu sync.Mutex
	m  map[string][]*Package
}

func cacheKey(cfg Config, patterns []string) string {
	dir := cfg.Dir
	if abs, err := filepath.Abs(dir); err == nil {
		dir = abs
	}
	return dir + "\x00" + strings.Join(patterns, "\x00")
}

// Load lists, parses and type-checks the packages matching patterns. Only
// packages named by the patterns are returned; dependencies are consumed
// as compiled export data. Returns an error on the first package that
// fails to list, parse or type-check — an analyzer run on a broken tree
// would report nonsense. Successful results are memoized per (dir,
// patterns) for the process lifetime; see cache.
func Load(cfg Config, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	key := cacheKey(cfg, patterns)
	cache.mu.Lock()
	cached, ok := cache.m[key]
	cache.mu.Unlock()
	if ok {
		return cached, nil
	}
	pkgs, err := load(cfg, patterns)
	if err != nil {
		return nil, err
	}
	cache.mu.Lock()
	if cache.m == nil {
		cache.m = make(map[string][]*Package)
	}
	cache.m[key] = pkgs
	cache.mu.Unlock()
	return pkgs, nil
}

// load is the uncached Load body.
func load(cfg Config, patterns []string) ([]*Package, error) {
	args := append([]string{"list", "-export", "-json=Dir,ImportPath,Export,GoFiles,DepOnly,Incomplete,Error", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = cfg.Dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := make(map[string]string)
	var targets []listEntry
	seen := make(map[string]bool)
	dec := json.NewDecoder(&stdout)
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if e.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", e.ImportPath, e.Error.Err)
		}
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
		// Overlapping patterns ("./...", "./internal/...") list the same
		// package more than once; type-check each import path only once
		// so downstream passes never see duplicate packages.
		if !e.DepOnly && len(e.GoFiles) > 0 && !seen[e.ImportPath] {
			seen[e.ImportPath] = true
			targets = append(targets, e)
		}
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	pkgs := make([]*Package, 0, len(targets))
	for _, t := range targets {
		p, err := checkOne(fset, imp, t)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// checkOne parses and type-checks one listed package.
func checkOne(fset *token.FileSet, imp types.Importer, e listEntry) (*Package, error) {
	files := make([]*ast.File, 0, len(e.GoFiles))
	for _, name := range e.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(e.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %v", e.ImportPath, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(e.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", e.ImportPath, err)
	}
	return &Package{
		ImportPath: e.ImportPath,
		Dir:        e.Dir,
		Fset:       fset,
		Files:      files,
		Types:      pkg,
		Info:       info,
	}, nil
}
