// Package lint is the repo's static-analysis policy: which analyzers
// exist, which packages each one polices, and how findings are collected,
// suppressed and ordered. cmd/kvet is a thin driver over this package.
//
// Before any reporting analyzer runs, RunSuite builds one interprocedural
// fact layer: per-function summaries over every loaded package (does it
// block, whom does it call — see internal/lint/callgraph), closed across
// package boundaries into a may-block fact and handed through a fact store
// to analyzers that declare NeedsFacts. lockheld is the one such analyzer;
// the rest work per file.
//
// Suppression: a finding is silenced by a comment
//
//	//lint:ignore <analyzer> <reason>
//
// on the flagged line or the line directly above it. The reason is
// mandatory — a bare ignore does not suppress — so every deliberate
// exception documents itself. A directive that suppresses nothing is
// itself reported (analyzer name "staleignore"): dead suppressions
// otherwise outlive the finding they excused and silently blind the next
// occurrence.
package lint

import (
	"sort"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/callgraph"
	"repro/internal/lint/errflow"
	"repro/internal/lint/load"
	"repro/internal/lint/lockheld"
	"repro/internal/lint/noclock"
)

// StaleIgnore is the pseudo-analyzer stale-suppression findings are
// attributed to. Its Run is a no-op: the detection lives in RunSuite,
// which sees every directive and every suppression hit; the analyzer
// exists so the findings have a name that a //lint:ignore directive can
// itself name.
var StaleIgnore = &analysis.Analyzer{
	Name: "staleignore",
	Doc:  "flags //lint:ignore directives that suppress no finding; a dead suppression blinds the next real occurrence on that line",
	Run:  func(*analysis.Pass) error { return nil },
}

// Rule binds an analyzer to the set of packages it polices.
type Rule struct {
	Analyzer *analysis.Analyzer
	// Exempt lists import paths the rule skips. Entries ending in "/..."
	// match the path and everything below it.
	Exempt []string
}

// AppliesTo reports whether the rule polices the package at importPath.
func (r Rule) AppliesTo(importPath string) bool {
	for _, p := range r.Exempt {
		if rest, ok := strings.CutSuffix(p, "/..."); ok {
			if importPath == rest || strings.HasPrefix(importPath, rest+"/") {
				return false
			}
		} else if importPath == p {
			return false
		}
	}
	return true
}

// Rules returns the repo policy. Rationale per rule:
//
//   - noclock keeps wall-clock reads inside obsv (the sanctioned Stopwatch),
//     bench, the binaries and the examples.
//   - lockheld applies everywhere: a critical section that blocks is wrong
//     in a cmd exactly as in the solver.
//   - errflow applies everywhere: a dropped error hides a failure path
//     regardless of the package.
//   - staleignore applies everywhere a directive can appear.
func Rules() []Rule {
	return []Rule{
		{Analyzer: noclock.Analyzer, Exempt: []string{
			"repro/internal/obsv",
			"repro/internal/bench",
			"repro/cmd/...",
			"repro/examples/...",
		}},
		{Analyzer: lockheld.Analyzer},
		{Analyzer: errflow.Analyzer},
		{Analyzer: StaleIgnore},
	}
}

// Finding is one unsuppressed diagnostic with a resolved position.
type Finding struct {
	Analyzer string
	File     string
	Line     int
	Col      int
	Message  string
}

// Options adjusts a RunSuite call.
type Options struct {
	// CheckStale reports //lint:ignore directives that suppressed nothing.
	CheckStale bool
}

// RunSuite applies the rule set to the loaded packages: one whole-program
// fact phase (package summaries in dependency order, MayBlock fixpoint),
// then the reporting analyzers per package, then stale-suppression
// detection over the accumulated directive hits. Findings come back
// sorted by position, each reported once.
func RunSuite(pkgs []*load.Package, rules []Rule, opts Options) ([]Finding, error) {
	var findings []Finding
	var store *callgraph.Store
	if anyNeedsFacts(rules) {
		store = callgraph.NewStore()
		callgraph.Analyze(pkgs, store, callgraph.DefaultBounded)
	}

	ix := collectIgnores(pkgs)
	for _, pkg := range pkgs {
		for _, r := range rules {
			if !r.AppliesTo(pkg.ImportPath) {
				continue
			}
			a := r.Analyzer
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			if store != nil {
				pass.Facts = store
			}
			name := a.Name
			pass.Report = func(d analysis.Diagnostic) {
				pos := pkg.Fset.Position(d.Pos)
				if ix.suppressed(pos.Filename, pos.Line, name, nil) {
					return
				}
				findings = append(findings, Finding{
					Analyzer: name,
					File:     pos.Filename,
					Line:     pos.Line,
					Col:      pos.Column,
					Message:  d.Message,
				})
			}
			if err := a.Run(pass); err != nil {
				return nil, err
			}
		}
	}

	if opts.CheckStale {
		findings = append(findings, ix.stale()...)
	}

	sortFindings(findings)
	return dedupeFindings(findings), nil
}

// dedupeFindings collapses identical (analyzer, position, message)
// findings to one. Overlapping load patterns and whole-program analyzers
// re-anchoring through shared packages can both surface the same
// diagnostic twice; one defect, one line of output. Input must be sorted.
func dedupeFindings(fs []Finding) []Finding {
	out := fs[:0]
	for i, f := range fs {
		if i > 0 {
			p := out[len(out)-1]
			if p.File == f.File && p.Line == f.Line && p.Col == f.Col &&
				p.Analyzer == f.Analyzer && p.Message == f.Message {
				continue
			}
		}
		out = append(out, f)
	}
	return out
}

func anyNeedsFacts(rules []Rule) bool {
	for _, r := range rules {
		if r.Analyzer.NeedsFacts {
			return true
		}
	}
	return false
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
}

// directive is one parsed //lint:ignore comment and its usage count.
type directive struct {
	names []string
	file  string
	line  int
	col   int
	hits  int
}

// ignoreIndex locates directives by file and line and remembers every one
// for the stale sweep.
type ignoreIndex struct {
	at  map[string]map[int][]*directive
	all []*directive
}

// suppressed reports whether analyzer name is ignored at file:line, by a
// directive on the line itself or the line directly above, and counts the
// hit. self, when non-nil, is excluded — a directive cannot vouch for its
// own staleness finding.
func (ix *ignoreIndex) suppressed(file string, line int, name string, self *directive) bool {
	lines := ix.at[file]
	for _, l := range []int{line, line - 1} {
		for _, d := range lines[l] {
			if d == self {
				continue
			}
			for _, n := range d.names {
				if n == name || n == "all" {
					d.hits++
					return true
				}
			}
		}
	}
	return false
}

// stale reports directives with zero hits. Two phases: first every
// zero-hit candidate's would-be finding runs through normal suppression
// (so a reasoned //lint:ignore staleignore above a deliberately kept
// directive both silences the finding and earns its own hit), then the
// survivors are re-checked — a candidate that picked up a hit while
// vouching for another is live after all.
func (ix *ignoreIndex) stale() []Finding {
	var candidates []*directive
	for _, d := range ix.all {
		if d.hits == 0 {
			candidates = append(candidates, d)
		}
	}
	sort.Slice(candidates, func(i, j int) bool {
		a, b := candidates[i], candidates[j]
		if a.file != b.file {
			return a.file < b.file
		}
		return a.line < b.line
	})
	type tentative struct {
		d *directive
		f Finding
	}
	var kept []tentative
	for _, d := range candidates {
		if ix.suppressed(d.file, d.line, StaleIgnore.Name, d) {
			continue
		}
		kept = append(kept, tentative{d, Finding{
			Analyzer: StaleIgnore.Name,
			File:     d.file,
			Line:     d.line,
			Col:      d.col,
			Message:  "//lint:ignore " + strings.Join(d.names, ",") + " suppresses no finding; delete the stale directive",
		}})
	}
	var out []Finding
	for _, t := range kept {
		if t.d.hits == 0 {
			out = append(out, t.f)
		}
	}
	return out
}

// collectIgnores scans every comment of every package for lint:ignore
// directives. A directive needs an analyzer name (or comma-separated
// names, or "all") followed by a non-empty reason.
func collectIgnores(pkgs []*load.Package) *ignoreIndex {
	ix := &ignoreIndex{at: make(map[string]map[int][]*directive)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					rest, ok := strings.CutPrefix(text, "lint:ignore")
					if !ok {
						continue
					}
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						continue // no reason given: directive is inert
					}
					pos := pkg.Fset.Position(c.Pos())
					d := &directive{
						names: strings.Split(fields[0], ","),
						file:  pos.Filename,
						line:  pos.Line,
						col:   pos.Column,
					}
					lines := ix.at[d.file]
					if lines == nil {
						lines = make(map[int][]*directive)
						ix.at[d.file] = lines
					}
					lines[d.line] = append(lines[d.line], d)
					ix.all = append(ix.all, d)
				}
			}
		}
	}
	return ix
}
