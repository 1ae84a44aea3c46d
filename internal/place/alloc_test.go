//go:build !race && !kraftwerkcheck

// The race detector and the kraftwerkcheck assertions both add
// allocations of their own, so the steady-state count is pinned only in
// the plain build.

package place

import (
	"testing"

	"repro/internal/netgen"
)

// TestStepAllocs pins the steady-state allocation count of one placement
// transformation at two design sizes. Step reuses its force increment,
// position snapshot and sort buffers, qp reuses its right-hand sides, the
// assembler, IC0 factor and field solver cache their storage, and
// matrix-vector products allocate nothing. What remains is per-solve CG
// vectors, the Field result, and the goroutine plumbing of the paired axis
// solves and the FFT passes. The count is deterministic for a fixed design
// and step sequence and does not depend on GOMAXPROCS, so each ceiling is
// the measured count: a new per-transformation allocation anywhere under
// Step fails this test. Both shapes measure exactly 180 allocations over
// the five steps, so the runtime's occasional stray allocation (a fresh
// goroutine for par.Pair; zero to two per five steps when measured) only
// reaches the next whole count at five.
func TestStepAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("places a 6000-cell design")
	}
	for _, tc := range []struct {
		name              string
		cells, nets, rows int
		maxAllocs         float64
	}{
		{"ic0-1k", 1000, 1333, 12, 36},
		{"ic0-6k", 6000, 8000, 26, 36},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nl := netgen.Generate(netgen.Config{Name: tc.name, Cells: tc.cells, Nets: tc.nets, Rows: tc.rows, Seed: 1})
			p := New(nl, Config{})
			if err := p.Initialize(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if _, err := p.Step(); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := p.Step(); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s: %.0f allocs/step", tc.name, allocs)
			if allocs > tc.maxAllocs {
				t.Errorf("Step allocates %.0f objects per transformation, ceiling %.0f", allocs, tc.maxAllocs)
			}
		})
	}
}
