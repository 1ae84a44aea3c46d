// Command kvet runs the repo's static-analysis suite (internal/lint) over
// the named package patterns and exits non-zero on any finding. It is the
// CI gate for the invariants the engine depends on: deterministic
// iteration (detrange), clock and randomness discipline (noclock),
// centralized parallelism (parpolicy), no exact float equality (floatcmp),
// the obsv nil-handle contract (nilsafe), no blocking under a mutex
// (lockheld, through the interprocedural may-block facts), no dropped
// errors (errflow), and exhaustive switches over module-local enum types
// (enumswitch).
//
// Usage:
//
//	kvet [flags] [patterns ...]
//
// Patterns default to ./... . Findings print as
// file:line:col: [analyzer] message. Suppress a deliberate exception with
// a "//lint:ignore <analyzer> <reason>" comment on or directly above the
// flagged line; a directive that suppresses nothing is itself a finding.
//
// Flags:
//
//	-tags tags        build tags, forwarded to go list
//	-list             print analyzers with their one-line docs, then exit
//	-debug-timing     print per-analyzer wall time to stderr after the run
//	-fix              apply suggested fixes in place
//	-diff             preview suggested fixes as a diff without writing
//	-json             print findings as a JSON array
//	-sarif file       also write findings as SARIF 2.1.0 to file
//	-baseline file    drop findings grandfathered by the baseline
//	-write-baseline f snapshot current findings into f and exit
//	-stale-baseline   with -baseline, fail when the baseline grandfathers
//	                  findings that no longer exist
//
// Exit status: 0 no findings, 1 findings, 2 operational error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/lint"
	"repro/internal/lint/load"
)

func main() {
	tags := flag.String("tags", "", "build tags to select files, forwarded to go list")
	list := flag.Bool("list", false, "print the analyzers and their one-line docs, then exit")
	debugTiming := flag.Bool("debug-timing", false, "print per-analyzer wall time to stderr after the run")
	fix := flag.Bool("fix", false, "apply suggested fixes to the source files")
	diff := flag.Bool("diff", false, "print suggested fixes as a diff without applying them")
	jsonOut := flag.Bool("json", false, "print findings as JSON")
	sarifPath := flag.String("sarif", "", "write findings as SARIF 2.1.0 to this file")
	baselinePath := flag.String("baseline", "", "suppress findings grandfathered by this baseline file")
	writeBaseline := flag.String("write-baseline", "", "write current findings to this baseline file and exit")
	staleBaseline := flag.Bool("stale-baseline", false, "with -baseline, fail when the baseline grandfathers findings that no longer exist")
	flag.Parse()

	rules := lint.Rules()
	if *list {
		if err := lint.WriteList(os.Stdout, rules); err != nil {
			fatal(err)
		}
		return
	}

	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}

	pkgs, err := load.Load(load.Config{BuildTags: *tags}, flag.Args()...)
	if err != nil {
		fatal(err)
	}
	res, err := lint.RunSuite(pkgs, rules, lint.Options{CheckStale: true})
	if err != nil {
		fatal(err)
	}
	findings := res.Findings
	if *debugTiming {
		for _, tm := range res.Timings {
			fmt.Fprintf(os.Stderr, "kvet: timing %-12s %s\n", tm.Analyzer, tm.Wall.Round(time.Microsecond))
		}
	}

	if *writeBaseline != "" {
		if err := lint.WriteBaseline(*writeBaseline, root, findings); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "kvet: wrote baseline with %d finding(s) to %s\n", len(findings), *writeBaseline)
		return
	}
	if *baselinePath != "" {
		bl, err := lint.LoadBaseline(*baselinePath)
		if err != nil {
			fatal(err)
		}
		if *staleBaseline {
			if stale := lint.StaleBaseline(bl, root, findings); len(stale) > 0 {
				for _, e := range stale {
					fmt.Fprintf(os.Stderr, "kvet: stale baseline entry (%d unmatched): %s %s: %s\n", e.Count, e.Analyzer, e.File, e.Message)
				}
				fmt.Fprintf(os.Stderr, "kvet: %s grandfathers %d finding class(es) that no longer exist; regenerate it with -write-baseline\n", *baselinePath, len(stale))
				os.Exit(1)
			}
		}
		var grandfathered int
		findings, grandfathered = lint.ApplyBaseline(bl, root, findings)
		if grandfathered > 0 {
			fmt.Fprintf(os.Stderr, "kvet: %d finding(s) grandfathered by %s\n", grandfathered, *baselinePath)
		}
	}

	if *fix || *diff {
		contents, applied, skipped, err := lint.ApplyFixes(res.Fset, findings)
		if err != nil {
			fatal(err)
		}
		if *diff {
			for _, file := range sortedKeys(contents) {
				old, err := os.ReadFile(file)
				if err != nil {
					fatal(err)
				}
				fmt.Print(lint.Diff(file, old, contents[file]))
			}
			_ = applied
		} else {
			for _, file := range sortedKeys(contents) {
				if err := os.WriteFile(file, contents[file], 0o644); err != nil {
					fatal(err)
				}
			}
			fmt.Fprintf(os.Stderr, "kvet: applied %d fix(es) in %d file(s)\n", applied, len(contents))
			if skipped > 0 {
				fmt.Fprintf(os.Stderr, "kvet: %d overlapping fix(es) skipped; rerun -fix\n", skipped)
			}
			// Fixed findings are resolved; what remains gates the exit code.
			findings = withoutFixes(findings)
		}
	}

	if *sarifPath != "" {
		data, err := lint.SARIF(root, rules, findings)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*sarifPath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}

	switch {
	case *jsonOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fatal(err)
		}
	case *diff:
		// The diff is the output.
	default:
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "kvet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// withoutFixes keeps the findings -fix could not resolve.
func withoutFixes(findings []lint.Finding) []lint.Finding {
	var out []lint.Finding
	for _, f := range findings {
		if len(f.Fixes) == 0 {
			out = append(out, f)
		}
	}
	return out
}

// sortedKeys orders the fixed-file map for deterministic output.
func sortedKeys(m map[string][]byte) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kvet:", err)
	os.Exit(2)
}
