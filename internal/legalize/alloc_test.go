//go:build !race

package legalize

import (
	"testing"

	"repro/internal/netlist"
)

// TestLegalizeAllocs caps the allocations of one legalization of a fixed
// circuit at its measured count. Staging buffers live in the pass state's
// scratch, so pricing a move never allocates, and rebindSegments gathers
// into scratch too, so the count does not grow with the number of moves
// priced or matching rounds committed. The plain build measures 251,
// under a ceiling of 261. The race detector adds allocations of its own
// (one run measured 262), so the count is pinned only in the plain build.
func TestLegalizeAllocs(t *testing.T) {
	const ceiling = 261
	nl := globalPlaced(t, 300, 78, 0)
	const runs = 3
	copies := make([]*netlist.Netlist, runs+1)
	for i := range copies {
		copies[i] = nl.Clone()
	}
	k := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := Legalize(copies[k], Options{}); err != nil {
			t.Fatal(err)
		}
		k++
	})
	t.Logf("%.0f allocs per legalization", allocs)
	if allocs > ceiling {
		t.Errorf("Legalize allocates %.0f objects, ceiling %d", allocs, ceiling)
	}
}
