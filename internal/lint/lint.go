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
// itself reported (analyzer name "staleignore") with a fix that deletes
// it: dead suppressions otherwise outlive the finding they excused and
// silently blind the next occurrence.
package lint

import (
	"fmt"
	"go/token"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/lint/analysis"
	"repro/internal/lint/callgraph"
	"repro/internal/lint/detrange"
	"repro/internal/lint/enumswitch"
	"repro/internal/lint/errflow"
	"repro/internal/lint/floatcmp"
	"repro/internal/lint/load"
	"repro/internal/lint/lockheld"
	"repro/internal/lint/nilsafe"
	"repro/internal/lint/noclock"
	"repro/internal/lint/parpolicy"
	"repro/internal/obsv"
)

// StaleIgnore is the pseudo-analyzer stale-suppression findings are
// attributed to. Its Run is a no-op: the detection lives in RunSuite,
// which sees every directive and every suppression hit; the analyzer
// exists so the findings have a name that -list documents and that a
// //lint:ignore directive can itself name.
var StaleIgnore = &analysis.Analyzer{
	Name: "staleignore",
	Doc:  "flags //lint:ignore directives that suppress no finding; a dead suppression blinds the next real occurrence on that line",
	Run:  func(*analysis.Pass) error { return nil },
}

// Rule binds an analyzer to the set of packages it polices.
type Rule struct {
	Analyzer *analysis.Analyzer
	// Only restricts the rule to the listed import paths when non-empty.
	Only []string
	// Exempt lists import paths the rule skips. Entries ending in "/..."
	// match the path and everything below it.
	Exempt []string
}

// AppliesTo reports whether the rule polices the package at importPath.
func (r Rule) AppliesTo(importPath string) bool {
	if len(r.Only) > 0 {
		return matchAny(r.Only, importPath)
	}
	return !matchAny(r.Exempt, importPath)
}

func matchAny(pats []string, path string) bool {
	for _, p := range pats {
		if rest, ok := strings.CutSuffix(p, "/..."); ok {
			if path == rest || strings.HasPrefix(path, rest+"/") {
				return true
			}
		} else if path == p {
			return true
		}
	}
	return false
}

// Rules returns the repo policy. Rationale per rule:
//
//   - detrange guards run-to-run reproducibility of the placement loop, so
//     it polices algorithm packages; obsv/bench/cmds/examples only render
//     output and order their own emissions.
//   - noclock keeps wall-clock reads inside obsv (the sanctioned Stopwatch),
//     bench and the binaries.
//   - parpolicy funnels all fan-out through internal/par, the one place
//     that decides worker counts; par itself is the implementation. The
//     serving layer (internal/serve, cmd/kserved) is deliberately NOT
//     exempt: its worker pool is par.Pool, and the daemon's one raw
//     accept-loop goroutine carries a reasoned //lint:ignore.
//   - floatcmp applies everywhere: exact float equality is as wrong in a
//     cmd as in the solver.
//   - nilsafe enforces the obsv handle contract (every exported method on a
//     nil handle is a no-op), so it runs only there.
//   - lockheld applies everywhere: a critical section that blocks is wrong
//     in a cmd exactly as in the solver.
//   - errflow applies everywhere: a dropped error hides a failure path
//     regardless of the package.
//   - enumswitch applies everywhere: a silent fall-through on a new enum
//     constant is wrong in a cmd exactly as in the solver.
//   - staleignore applies everywhere a directive can appear.
func Rules() []Rule {
	reporting := []string{
		"repro/internal/obsv",
		"repro/internal/bench",
		"repro/cmd/...",
		"repro/examples/...",
	}
	return []Rule{
		{Analyzer: detrange.Analyzer, Exempt: reporting},
		{Analyzer: noclock.Analyzer, Exempt: reporting},
		{Analyzer: parpolicy.Analyzer, Exempt: []string{"repro/internal/par"}},
		{Analyzer: floatcmp.Analyzer},
		{Analyzer: nilsafe.Analyzer, Only: []string{"repro/internal/obsv"}},
		{Analyzer: lockheld.Analyzer},
		{Analyzer: errflow.Analyzer},
		{Analyzer: enumswitch.Analyzer},
		{Analyzer: StaleIgnore},
	}
}

// Finding is one unsuppressed diagnostic with a resolved position.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
	// Fixes carries the analyzer's suggested fixes, if any. ApplyFixes
	// applies the first one.
	Fixes []analysis.SuggestedFix `json:"-"`
}

// Options adjusts a RunSuite call.
type Options struct {
	// CheckStale reports //lint:ignore directives that suppressed nothing.
	CheckStale bool
}

// Timing is the accumulated wall time of one analyzer across every
// package it ran on. The pseudo-analyzer name "facts" carries the
// whole-program fact phase.
type Timing struct {
	Analyzer string
	Wall     time.Duration
}

// Result is the outcome of one suite run.
type Result struct {
	Findings []Finding
	// Fset resolves the positions inside Findings (one shared FileSet
	// spans every loaded package), which ApplyFixes needs.
	Fset *token.FileSet
	// Timings lists per-analyzer wall time, slowest first (kvet
	// -debug-timing renders it).
	Timings []Timing
}

// RunSuite applies the rule set to the loaded packages: one whole-program
// fact phase (package summaries in dependency order, MayBlock fixpoint),
// then the reporting analyzers per package, then stale-suppression
// detection over the accumulated directive hits.
func RunSuite(pkgs []*load.Package, rules []Rule, opts Options) (*Result, error) {
	if len(pkgs) == 0 {
		return &Result{}, nil
	}
	res := &Result{Fset: pkgs[0].Fset}
	wall := make(map[string]time.Duration)

	var store *callgraph.Store
	if anyNeedsFacts(rules) {
		store = callgraph.NewStore()
		sw := obsv.StartTimer()
		callgraph.Analyze(pkgs, store, callgraph.DefaultBounded)
		wall["facts"] = sw.Elapsed()
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
				res.Findings = append(res.Findings, Finding{
					Analyzer: name,
					File:     pos.Filename,
					Line:     pos.Line,
					Col:      pos.Column,
					Message:  d.Message,
					Fixes:    d.SuggestedFixes,
				})
			}
			sw := obsv.StartTimer()
			err := a.Run(pass)
			wall[name] += sw.Elapsed()
			if err != nil {
				return nil, err
			}
		}
	}

	if opts.CheckStale {
		res.Findings = append(res.Findings, ix.stale()...)
	}

	sortFindings(res.Findings)
	res.Findings = dedupeFindings(res.Findings)
	res.Timings = sortTimings(wall)
	return res, nil
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

// sortTimings renders the wall map slowest-first, ties by name.
func sortTimings(wall map[string]time.Duration) []Timing {
	out := make([]Timing, 0, len(wall))
	for name, d := range wall {
		out = append(out, Timing{Analyzer: name, Wall: d})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Wall != out[j].Wall {
			return out[i].Wall > out[j].Wall
		}
		return out[i].Analyzer < out[j].Analyzer
	})
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
	names    []string
	file     string
	line     int
	col      int
	pos, end token.Pos // the comment's span, for the deletion fix
	hits     int
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
			Fixes: []analysis.SuggestedFix{{
				Message:   "delete the stale directive",
				TextEdits: []analysis.TextEdit{{Pos: d.pos, End: d.end, NewText: ""}},
			}},
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
						pos:   c.Pos(),
						end:   c.End(),
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

// WriteList renders the rule set for kvet -list: one line per analyzer,
// sorted by name, with the first sentence of its doc string. The full
// paragraph stays in the analyzer's package documentation; the listing is
// a table of contents, not a manual.
func WriteList(w io.Writer, rules []Rule) error {
	byName := make(map[string]*analysis.Analyzer, len(rules))
	for _, r := range rules {
		byName[r.Analyzer.Name] = r.Analyzer
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "%-12s %s\n", name, firstSentence(byName[name].Doc)); err != nil {
			return err
		}
	}
	return nil
}

// firstSentence cuts doc at the first period-space boundary; docs without
// one are already a single sentence.
func firstSentence(doc string) string {
	if i := strings.Index(doc, ". "); i >= 0 {
		return doc[:i+1]
	}
	return strings.TrimSpace(doc)
}
