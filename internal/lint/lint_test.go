package lint_test

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/enumswitch"
	"repro/internal/lint/floatcmp"
	"repro/internal/lint/load"
)

func loadStale(t *testing.T) []*load.Package {
	t.Helper()
	pkgs, err := load.Load(load.Config{Dir: "testdata/stale"}, ".")
	if err != nil {
		t.Fatalf("loading stale fixture: %v", err)
	}
	return pkgs
}

// TestStaleIgnore checks the three directive fates: a directive that
// suppresses a finding is live, a directive that suppresses nothing is
// reported, and a stale directive vouched for by a reasoned
// //lint:ignore staleignore stays — with the voucher earning its own hit.
func TestStaleIgnore(t *testing.T) {
	res, err := lint.RunSuite(loadStale(t), []lint.Rule{{Analyzer: floatcmp.Analyzer}}, lint.Options{CheckStale: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 1 {
		for _, f := range res.Findings {
			t.Logf("finding: %s:%d [%s] %s", f.File, f.Line, f.Analyzer, f.Message)
		}
		t.Fatalf("want exactly 1 finding (the stale directive in dead), got %d", len(res.Findings))
	}
	f := res.Findings[0]
	if f.Analyzer != "staleignore" {
		t.Errorf("finding analyzer = %q, want staleignore", f.Analyzer)
	}
	if !strings.Contains(f.Message, "suppresses no finding") {
		t.Errorf("unexpected message: %s", f.Message)
	}
	if len(f.Fixes) == 0 {
		t.Fatalf("stale finding carries no fix")
	}
}

// TestStaleIgnoreFix checks that applying the stale finding's fix deletes
// the whole directive line, not just the comment text.
func TestStaleIgnoreFix(t *testing.T) {
	res, err := lint.RunSuite(loadStale(t), []lint.Rule{{Analyzer: floatcmp.Analyzer}}, lint.Options{CheckStale: true})
	if err != nil {
		t.Fatal(err)
	}
	contents, applied, skipped, err := lint.ApplyFixes(res.Fset, res.Findings)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 1 || skipped != 0 {
		t.Fatalf("applied=%d skipped=%d, want 1/0", applied, skipped)
	}
	if len(contents) != 1 {
		t.Fatalf("fix touched %d files, want 1", len(contents))
	}
	for file, fixed := range contents {
		orig, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(fixed), "nothing here compares floats\n") {
			t.Errorf("stale directive still present after fix")
		}
		// Whole-line deletion: exactly one line shorter, no blank husk with
		// trailing indentation left behind.
		if got, want := strings.Count(string(fixed), "\n"), strings.Count(string(orig), "\n")-1; got != want {
			t.Errorf("fixed file has %d lines, want %d", got, want)
		}
		if strings.Contains(string(fixed), "\t\n") {
			t.Errorf("fix left an indented blank line behind")
		}
		// The vouched-for directive in kept must survive.
		if !strings.Contains(string(fixed), "nothing here compares floats either") {
			t.Errorf("fix deleted the vouched-for directive in kept")
		}
	}
}

// TestDedupeFindings proves identical (analyzer, position, message)
// triples from overlapping package loads print once: running the suite
// over the same package listed twice yields exactly the single-load
// findings.
func TestDedupeFindings(t *testing.T) {
	pkgs, err := load.Load(load.Config{Dir: "enumswitch/testdata/fixture"}, ".")
	if err != nil {
		t.Fatalf("loading enumswitch fixture: %v", err)
	}
	single, err := lint.RunSuite(pkgs, []lint.Rule{{Analyzer: enumswitch.Analyzer}}, lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(single.Findings) == 0 {
		t.Fatal("fixture yields no findings to deduplicate")
	}
	doubled := append(append([]*load.Package(nil), pkgs...), pkgs...)
	deduped, err := lint.RunSuite(doubled, []lint.Rule{{Analyzer: enumswitch.Analyzer}}, lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripFixes(single.Findings), stripFixes(deduped.Findings)) {
		t.Errorf("doubled load yields %d finding(s), single load %d: deduplication failed\n doubled: %+v\n single: %+v",
			len(deduped.Findings), len(single.Findings), deduped.Findings, single.Findings)
	}
}

// stripFixes clears the fix slices so DeepEqual compares finding identity
// (analyzer, position, message), not fix pointer equality.
func stripFixes(fs []lint.Finding) []lint.Finding {
	out := append([]lint.Finding(nil), fs...)
	for i := range out {
		out[i].Fixes = nil
	}
	return out
}

// TestWriteListGolden pins kvet -list output: one sorted line per
// analyzer with its one-line doc, compared against testdata/list.golden.
// Regenerate the golden by hand when adding an analyzer — the diff in
// review is the point.
func TestWriteListGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := lint.WriteList(&buf, lint.Rules()); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/list.golden")
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if buf.String() != string(want) {
		t.Errorf("kvet -list output differs from testdata/list.golden:\n%s", lint.Diff("list.golden", want, buf.Bytes()))
	}
}
