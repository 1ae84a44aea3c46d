//go:build !race

// The race detector adds allocations of its own, so the steady-state
// count is pinned only in the plain build.

package place

import (
	"runtime"
	"testing"

	"repro/internal/netgen"
)

// TestStepAllocs pins the steady-state allocations of one placement
// transformation at two design sizes, as an object count and as bytes.
// Step reuses its density field, force increment, position snapshot,
// displacement buffers and lane tasks; the grid keeps its cell demand (a
// transformation whose cells did not move since the last accumulation
// re-folds it instead of depositing again) and its empty-square rows; qp
// reuses its stiffness diagonal, right-hand sides, contribution map and
// one solve task per axis; the IC0 factor and field solver cache their
// storage; and the FFT passes run on the field lane's goroutine through
// the plan's one line buffer. Every fork-join of the step (the field
// beside the build, the axis solve pair, the assembly halves, the
// accumulation beside the wire length) hands a pre-bound task to the
// persistent helper lane, which allocates nothing, so the step measures
// 0 objects and 0 bytes, and the object ceiling is 0. The finite-value
// checks ride on passes the step already makes and allocate only on
// failure. testing.AllocsPerRun measures at GOMAXPROCS 1, where every
// fork runs inline. The bytes are measured at GOMAXPROCS 1 and 2: at 2
// the lane tasks run on the helper. A new per-transformation allocation
// anywhere under Step fails it. AllocsPerRun rounds down over five steps,
// so up to four stray runtime allocations stay below the next whole
// count. The byte ceiling leaves room for the runtime's
// occasional stray allocation but not for any per-step buffer the size
// of a grid row: the field the placer once allocated every step was
// 2·NX·NY floats (32 KB at 1k cells), the empty-square rows 2·NX ints.
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
		{"ic0-1k", 1000, 1333, 12, 0, 1536},
		{"ic0-6k", 6000, 8000, 26, 0, 1536},
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

			// Bytes are measured at GOMAXPROCS 1 and 2: at 2 the field
			// solve, the solve pair and the finish-phase tasks run beside
			// their partners on the helper lane.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			for _, procs := range []int{1, 2} {
				runtime.GOMAXPROCS(procs)
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
				t.Logf("%s: %.0f bytes/step at GOMAXPROCS %d", tc.name, bytes, procs)
				if bytes > tc.maxBytes {
					t.Errorf("Step allocates %.0f bytes per transformation at GOMAXPROCS %d, ceiling %.0f", bytes, procs, tc.maxBytes)
				}
			}
		})
	}
}
