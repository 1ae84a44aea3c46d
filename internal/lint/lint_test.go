package lint_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/load"
	"repro/internal/lint/noclock"
)

// TestStaleIgnore checks the three directive fates: a directive that
// suppresses a finding is live, a directive that suppresses nothing is
// reported, and a stale directive vouched for by a reasoned
// //lint:ignore staleignore stays — with the voucher earning its own hit.
func TestStaleIgnore(t *testing.T) {
	pkgs, err := load.Load(load.Config{Dir: "testdata/stale"}, ".")
	if err != nil {
		t.Fatalf("loading stale fixture: %v", err)
	}
	findings, err := lint.RunSuite(pkgs, []lint.Rule{{Analyzer: noclock.Analyzer}}, lint.Options{CheckStale: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		for _, f := range findings {
			t.Logf("finding: %s:%d [%s] %s", f.File, f.Line, f.Analyzer, f.Message)
		}
		t.Fatalf("want exactly 1 finding (the stale directive in dead), got %d", len(findings))
	}
	f := findings[0]
	if f.Analyzer != "staleignore" {
		t.Errorf("finding analyzer = %q, want staleignore", f.Analyzer)
	}
	if !strings.Contains(f.Message, "suppresses no finding") {
		t.Errorf("unexpected message: %s", f.Message)
	}
	if f.Line != 17 {
		t.Errorf("stale finding at line %d, want 17 (the directive in dead)", f.Line)
	}
}

// TestDedupeFindings proves identical (analyzer, position, message)
// triples from overlapping package loads print once: running the suite
// over the same package listed twice yields exactly the single-load
// findings.
func TestDedupeFindings(t *testing.T) {
	pkgs, err := load.Load(load.Config{Dir: "noclock/testdata/fixture"}, ".")
	if err != nil {
		t.Fatalf("loading noclock fixture: %v", err)
	}
	rules := []lint.Rule{{Analyzer: noclock.Analyzer}}
	single, err := lint.RunSuite(pkgs, rules, lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(single) == 0 {
		t.Fatal("fixture yields no findings to deduplicate")
	}
	doubled := append(append([]*load.Package(nil), pkgs...), pkgs...)
	deduped, err := lint.RunSuite(doubled, rules, lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(single, deduped) {
		t.Errorf("doubled load yields %d finding(s), single load %d: deduplication failed\n doubled: %+v\n single: %+v",
			len(deduped), len(single), deduped, single)
	}
}
