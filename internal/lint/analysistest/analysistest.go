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
// fixture, as under kvet.
package analysistest

import (
	"regexp"
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
	pkgs, err := load.Load(load.Config{Dir: dir}, ".")
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	findings, err := lint.RunSuite(pkgs, []lint.Rule{{Analyzer: a}}, lint.Options{})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}
	var wants []*expectation
	for _, pkg := range pkgs {
		wants = append(wants, collectWants(t, pkg)...)
	}
	for _, f := range findings {
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
