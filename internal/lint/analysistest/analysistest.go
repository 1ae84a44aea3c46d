// Package analysistest runs one analyzer over a fixture package and
// checks its diagnostics against `// want` comments, mirroring the
// golang.org/x/tools/go/analysis/analysistest contract on the standard
// library alone.
//
// A fixture is an ordinary compilable package under the analyzer's
// testdata directory (testdata keeps it out of ./... builds). Lines that
// should be flagged carry a trailing
//
//	// want `regexp`
//
// comment (multiple backquoted regexps for multiple diagnostics on one
// line). The run fails on any diagnostic without a matching want and any
// want without a matching diagnostic, so fixtures prove both that the
// analyzer catches its target pattern and that it stays quiet elsewhere.
// Suppression directives (//lint:ignore) are honored, so fixtures also
// exercise the ignore path.
//
// Analyzers that declare NeedsFacts get the callgraph fact phase over the
// fixture, as under kvet. Analyzers with autofixes use RunFix, which
// checks the fixed output against `.fixed` goldens, proves it still
// compiles, and proves a second fix pass has nothing left to do.
package analysistest

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
)

// wantRE extracts the backquoted patterns of one want comment.
var wantRE = regexp.MustCompile("`([^`]*)`")

// expectation is one want entry: a pattern expected to match a diagnostic
// on a specific line.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run loads the fixture package rooted at dir (a directory path relative
// to the test's working directory), applies the analyzer, and reports any
// mismatch between diagnostics and want comments as test errors.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	pkgs, res := run(t, dir, a)
	var wants []*expectation
	for _, pkg := range pkgs {
		wants = append(wants, collectWants(t, pkg)...)
	}
	for _, f := range res.Findings {
		if !claim(wants, f) {
			t.Errorf("%s:%d: unexpected diagnostic: %s", f.File, f.Line, f.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}

// run loads the fixture and applies the analyzer as a one-rule suite.
func run(t *testing.T, dir string, a *analysis.Analyzer) ([]*load.Package, *lint.Result) {
	t.Helper()
	pkgs, err := load.Load(load.Config{Dir: dir}, ".")
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	res, err := lint.RunSuite(pkgs, []lint.Rule{{Analyzer: a}}, lint.Options{})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}
	return pkgs, res
}

// RunFix applies the analyzer's suggested fixes to the fixture at dir and
// checks three properties: the fixed content of every changed file matches
// its `<name>.fixed` golden, the fixed package still compiles (it is
// re-loaded and type-checked from a scratch module), and a second run over
// the fixed code suggests nothing — the fix is idempotent.
func RunFix(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	pkgs, res := run(t, dir, a)
	if len(pkgs) != 1 {
		t.Fatalf("RunFix wants a single-package fixture, got %d packages", len(pkgs))
	}
	fixed, applied, skipped, err := lint.ApplyFixes(res.Fset, res.Findings)
	if err != nil {
		t.Fatalf("applying fixes: %v", err)
	}
	if applied == 0 {
		t.Fatalf("fixture produced no applicable fixes")
	}
	if skipped != 0 {
		t.Errorf("fixture has %d overlapping fixes; RunFix fixtures should apply cleanly in one pass", skipped)
	}

	changed := make([]string, 0, len(fixed))
	for file := range fixed {
		changed = append(changed, file)
	}
	sort.Strings(changed)
	for _, file := range changed {
		golden := file + ".fixed"
		want, rerr := os.ReadFile(golden)
		if rerr != nil {
			t.Errorf("fix changed %s but no golden exists: %v", filepath.Base(file), rerr)
			continue
		}
		if string(fixed[file]) != string(want) {
			t.Errorf("fixed %s differs from golden:\n%s", filepath.Base(file),
				lint.Diff(golden, want, fixed[file]))
		}
	}

	// Rebuild the fixture in a scratch module with the fixes applied: a
	// successful load is a successful compile, and a clean re-run proves
	// the fixes do not feed the analyzer new findings.
	tmp := t.TempDir()
	if err := os.WriteFile(filepath.Join(tmp, "go.mod"), []byte("module fixture\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(pkgs[0].Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		src := filepath.Join(pkgs[0].Dir, e.Name())
		content, ok := fixed[src]
		if !ok {
			if content, err = os.ReadFile(src); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(tmp, e.Name()), content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	repkgs, err := load.Load(load.Config{Dir: tmp}, ".")
	if err != nil {
		t.Fatalf("fixed fixture no longer compiles: %v", err)
	}
	reres, err := lint.RunSuite(repkgs, []lint.Rule{{Analyzer: a}}, lint.Options{})
	if err != nil {
		t.Fatalf("re-running %s on fixed fixture: %v", a.Name, err)
	}
	for _, f := range reres.Findings {
		if len(f.Fixes) > 0 {
			t.Errorf("fix not idempotent: second run still suggests a fix at %s:%d: %s",
				filepath.Base(f.File), f.Line, f.Message)
		}
	}
}

// claim marks the first unmatched want satisfied by finding f.
func claim(wants []*expectation, f lint.Finding) bool {
	for _, w := range wants {
		if !w.matched && w.file == f.File && w.line == f.Line && w.pattern.MatchString(f.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

// collectWants parses every `// want` comment of the fixture package.
func collectWants(t *testing.T, pkg *load.Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				ms := wantRE.FindAllStringSubmatch(rest, -1)
				if len(ms) == 0 {
					t.Fatalf("%s: malformed want comment (need backquoted regexp): %s", pos, c.Text)
				}
				for _, m := range ms {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, m[1], err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}
	return wants
}
