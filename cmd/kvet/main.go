// Command kvet runs the repo's static-analysis suite (internal/lint) over
// the named package patterns and exits non-zero on any finding. It is the
// CI gate for three invariants no test checks: clock and randomness
// discipline in the algorithm packages (noclock), no blocking under a
// mutex (lockheld, through the interprocedural may-block facts) and no
// dropped errors (errflow).
//
// Usage:
//
//	kvet [patterns ...]
//
// Patterns default to ./... and kvet takes no flags. Findings print as
// file:line:col: [analyzer] message. Suppress a deliberate exception with
// a "//lint:ignore <analyzer> <reason>" comment on or directly above the
// flagged line; a directive that suppresses nothing is itself a finding
// (staleignore).
//
// Exit status: 0 no findings, 1 findings, 2 operational error.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
	"repro/internal/lint/load"
)

func main() {
	flag.Parse()
	pkgs, err := load.Load(load.Config{}, flag.Args()...)
	if err != nil {
		fatal(err)
	}
	findings, err := lint.RunSuite(pkgs, lint.Rules(), lint.Options{CheckStale: true})
	if err != nil {
		fatal(err)
	}
	for _, f := range findings {
		fmt.Printf("%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "kvet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kvet:", err)
	os.Exit(2)
}
