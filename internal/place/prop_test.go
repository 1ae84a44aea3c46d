package place

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/density"
	"repro/internal/netgen"
	"repro/internal/netlist"
)

// TestGlobalInvariantsProperty: over random circuits, a global placement
// run always terminates, keeps every cell inside the region, never
// produces NaN coordinates, and never moves fixed cells.
func TestGlobalInvariantsProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("many placement runs")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nl := netgen.Generate(netgen.Config{
			Name:  "prop",
			Cells: 30 + rng.Intn(150),
			Nets:  40 + rng.Intn(200),
			Rows:  2 + rng.Intn(10),
			Seed:  seed,
		})
		fixed := nl.Snapshot()
		res, err := Global(nl, Config{MaxIter: 60})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if res.Iterations == 0 {
			return false
		}
		out := nl.Region.Outline
		for ci := range nl.Cells {
			c := &nl.Cells[ci]
			if math.IsNaN(c.Pos.X) || math.IsNaN(c.Pos.Y) {
				t.Logf("seed %d: NaN", seed)
				return false
			}
			if c.Fixed {
				if c.Pos != fixed[ci] {
					t.Logf("seed %d: fixed cell moved", seed)
					return false
				}
				continue
			}
			if !out.Contains(c.Pos) {
				t.Logf("seed %d: cell %d outside at %v", seed, ci, c.Pos)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestDeterministicRuns: identical configurations produce bit-identical
// placements. The algorithm has no hidden randomness, and the reuse
// machinery (pattern refill, refactored IC0 factor, cached field spectra,
// warm start) carries no hidden state between runs. Every run solves with
// IC0; ic0-rfft sets a grid large enough that the field is evaluated by
// the real-FFT pipeline, and checks that it is.
func TestDeterministicRuns(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		rfft bool
	}{
		{"default", Config{MaxIter: 40}, false},
		{"ic0-rfft", Config{MaxIter: 40, GridBins: 64}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.rfft {
				nl := warmNetlist(53)
				g := New(nl, tc.cfg).Grid()
				g.Accumulate(nl)
				fa, fr := density.ComputeField(g, density.Auto), density.ComputeField(g, density.RealFFT)
				for i := range fa.FX {
					if fa.FX[i] != fr.FX[i] || fa.FY[i] != fr.FY[i] {
						t.Fatalf("the %d×%d grid's field is not evaluated by rfft", g.NX, g.NY)
					}
				}
			}
			run := func() *netlist.Netlist {
				nl := warmNetlist(53)
				if _, err := Global(nl, tc.cfg); err != nil {
					t.Fatal(err)
				}
				return nl
			}
			a, b := run(), run()
			for ci := range a.Cells {
				if a.Cells[ci].Pos != b.Cells[ci].Pos {
					t.Fatalf("runs diverge at cell %d: %v vs %v", ci, a.Cells[ci].Pos, b.Cells[ci].Pos)
				}
			}
		})
	}
}
