//go:build !race && !kraftwerkcheck

// The race detector and the kraftwerkcheck assertions both add
// allocations of their own, so the steady-state count is pinned only in
// the plain build.

package place

import (
	"runtime"
	"testing"

	"repro/internal/netgen"
)

// TestStepAllocs pins the steady-state allocations of one placement
// transformation at two design sizes, as an object count and as bytes.
// Step reuses its density field, force increment, position snapshot and
// sort buffers; the grid keeps its cell demand (a transformation whose
// cells did not move since the last accumulation re-folds it instead of
// depositing again) and its empty-square rows; qp reuses its stiffness
// diagonal, right-hand sides and one CG workspace per axis; the
// assembler, IC0 factor and field solver cache their storage; and the FFT
// passes gather through the plan's line buffers. What remains is 12
// objects: the goroutine plumbing of the paired axis solves (6: the
// par.Pair channel and closures, and the result and errors they write)
// and the par.Run closure of each FFT pass (6: forward rows and columns,
// then columns and rows for each of the two inverses), 992 bytes in all.
// testing.AllocsPerRun measures at GOMAXPROCS 1, where every par.Run pass
// stays inline, and the byte count is taken at GOMAXPROCS 1 too; above
// that, each fanned-out pass adds its goroutine closures. Both counts are
// deterministic for a fixed design and step sequence, so the object
// ceiling is the measured count: a new per-transformation allocation
// anywhere under Step fails it. AllocsPerRun rounds down over five steps,
// so up to four stray runtime allocations stay below the next whole
// count. The byte ceiling leaves room for the
// runtime's occasional stray allocation (a fresh goroutine for par.Pair)
// but not for any per-step buffer the size of a grid row: the field the
// placer once allocated every step was 2·NX·NY floats (32 KB at 1k
// cells), the empty-square rows 2·NX ints.
func TestStepAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("places a 6000-cell design")
	}
	for _, tc := range []struct {
		name              string
		cells, nets, rows int
		maxAllocs         float64
		maxBytes          float64
	}{
		{"ic0-1k", 1000, 1333, 12, 12, 1536},
		{"ic0-6k", 6000, 8000, 26, 12, 1536},
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

			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var before, after runtime.MemStats
			const steps = 10
			runtime.ReadMemStats(&before)
			for i := 0; i < steps; i++ {
				if _, err := p.Step(); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / steps
			t.Logf("%s: %.0f bytes/step", tc.name, bytes)
			if bytes > tc.maxBytes {
				t.Errorf("Step allocates %.0f bytes per transformation, ceiling %.0f", bytes, tc.maxBytes)
			}
		})
	}
}
