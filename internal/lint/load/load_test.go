package load

import (
	"testing"
	"time"
)

// TestLoadMemoized proves a second Load of the same (dir, patterns)
// returns the cached result — same packages, no second go list — by
// pointer identity and by wall time (a real load shells out to the go
// command; a cache hit is a map lookup).
func TestLoadMemoized(t *testing.T) {
	cfg := Config{Dir: "../testdata/stale"}
	first, err := Load(cfg, ".")
	if err != nil {
		t.Fatalf("first load: %v", err)
	}
	start := time.Now()
	second, err := Load(cfg, ".")
	hit := time.Since(start)
	if err != nil {
		t.Fatalf("second load: %v", err)
	}
	if len(first) != len(second) {
		t.Fatalf("cache returned %d packages, first load %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("package %d not shared: cache must return the memoized slice", i)
		}
	}
	// A go list + typecheck takes tens of milliseconds at minimum; a map
	// lookup is microseconds. The generous bound keeps the assertion
	// meaningful without flaking on slow machines.
	if hit > 50*time.Millisecond {
		t.Errorf("cache hit took %v; looks like a full reload", hit)
	}
}

// TestLoadDistinctKeys proves different patterns are cached separately.
func TestLoadDistinctKeys(t *testing.T) {
	cfg := Config{Dir: ".."}
	stale, err := Load(cfg, "./testdata/stale")
	if err != nil {
		t.Fatalf("loading stale: %v", err)
	}
	other, err := Load(cfg, "./noclock/testdata/fixture")
	if err != nil {
		t.Fatalf("loading noclock fixture: %v", err)
	}
	if stale[0].ImportPath == other[0].ImportPath {
		t.Errorf("distinct patterns returned the same package %q", stale[0].ImportPath)
	}
}

// TestLoadDedupsOverlappingPatterns proves a package matched by several
// patterns of one call is type-checked and returned once.
func TestLoadDedupsOverlappingPatterns(t *testing.T) {
	pkgs, err := Load(Config{Dir: "../testdata/stale"}, ".", "./...")
	if err != nil {
		t.Fatalf("loading with overlapping patterns: %v", err)
	}
	seen := make(map[string]int)
	for _, p := range pkgs {
		seen[p.ImportPath]++
	}
	for path, n := range seen {
		if n > 1 {
			t.Errorf("package %s returned %d times; overlapping patterns must dedup", path, n)
		}
	}
}
