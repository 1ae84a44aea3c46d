package obsv

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// clockFuncs are package time's functions that read the wall clock or
// schedule against it.
var clockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true, "Sleep": true,
}

// globalRandFuncs are the package-level functions of math/rand and
// math/rand/v2 that draw from the process-wide source.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "IntN": true, "N": true,
	"Uint32": true, "Uint64": true, "Uint32N": true, "Uint64N": true,
	"UintN": true, "Uint": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true,
	"Seed": true, "Read": true,
}

// watchedImports maps each watched import path to its default local name
// and the functions of it that a run must not call.
var watchedImports = map[string]struct {
	name  string
	funcs map[string]bool
}{
	"time":         {"time", clockFuncs},
	"math/rand":    {"rand", globalRandFuncs},
	"math/rand/v2": {"rand", globalRandFuncs},
}

// clockOwners are the module directories that may read the clock: this
// package (Stopwatch), the benchmark harness, the commands and the
// examples.
var clockOwners = map[string]bool{
	"internal/obsv": true, "internal/bench": true, "cmd": true, "examples": true,
}

// clockAllowed lists the functions outside clockOwners that may read the
// clock; the comment at each says why.
var clockAllowed = map[string]bool{
	"serve.(*Server).now": true,
}

// TestNoClockReads keeps the seed in charge of every run. No non-test
// file of the module outside clockOwners reads the wall clock or draws
// from math/rand's process-wide source: timing goes through Stopwatch,
// and randomness through an explicitly seeded rand.New.
func TestNoClockReads(t *testing.T) {
	root := filepath.Join("..", "..") // the module root
	fset := token.NewFileSet()
	files := 0
	allowedUsed := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			name := d.Name()
			if clockOwners[filepath.ToSlash(rel)] || name == "testdata" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // another module, such as perfbench
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files++
		for _, r := range clockReads(f) {
			if clockAllowed[r.fn] {
				allowedUsed[r.fn] = true
				continue
			}
			t.Errorf("%s: %s in %s: read time through obsv.Stopwatch, and draw randomness from a seeded rand.New",
				fset.Position(r.pos), r.call, r.fn)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no Go files found under the module root")
	}
	for fn := range clockAllowed {
		if !allowedUsed[fn] {
			t.Errorf("allowlist entry %s no longer reads the clock; remove it", fn)
		}
	}
}

// clockRead is one forbidden call (or function value) found in a file.
type clockRead struct {
	pos  token.Pos
	call string // such as "time.Now", or "import . time"
	fn   string // enclosing function, such as "serve.(*Server).now"
}

// clockReads finds f's references to a watched function through the
// file's local name for its package. An identifier the parser resolved
// to a local declaration (a variable named rand, say) is not the package.
func clockReads(f *ast.File) []clockRead {
	local := map[string]map[string]bool{}
	var reads []clockRead
	for _, im := range f.Imports {
		path, _ := strconv.Unquote(im.Path.Value)
		w, ok := watchedImports[path]
		if !ok {
			continue
		}
		name := w.name
		if im.Name != nil {
			name = im.Name.Name
		}
		if name == "." {
			reads = append(reads, clockRead{im.Pos(), "import . " + path, "file scope"})
		}
		local[name] = w.funcs
	}
	for _, decl := range f.Decls {
		fn := f.Name.Name + " package scope"
		if d, ok := decl.(*ast.FuncDecl); ok {
			fn = f.Name.Name + "." + d.Name.Name
			if d.Recv != nil {
				fn = f.Name.Name + ".(" + types.ExprString(d.Recv.List[0].Type) + ")." + d.Name.Name
			}
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if ok && pkg.Obj == nil && local[pkg.Name][sel.Sel.Name] {
				reads = append(reads, clockRead{sel.Pos(), pkg.Name + "." + sel.Sel.Name, fn})
			}
			return true
		})
	}
	return reads
}
