package legalize

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/netgen"
)

// TestLegalizeInvariantsProperty: over random circuits and random starting
// placements, legalization always yields zero overlap, cells inside the
// region, standard cells on row centers, and after every pass each
// segment's used width equal to its cells' widths and within capacity —
// and the detailed pass never worsens the wire length it starts from.
func TestLegalizeInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nl := netgen.Generate(netgen.Config{
			Name:   "prop",
			Cells:  30 + rng.Intn(150),
			Nets:   40 + rng.Intn(180),
			Rows:   3 + rng.Intn(10),
			Blocks: rng.Intn(3),
			Seed:   seed,
		})
		netgen.ScatterRandom(nl, seed+7)

		// Legalize without the improver, then with: the improver must not
		// make things worse.
		plain := nl.Clone()
		rp, err := Legalize(plain, Options{DetailedPasses: -1})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		var bookkeeping error
		ri, err := legalize(nl, Options{}, func(pass string, segs []*Segment) {
			if err := checkSegments(nl, segs); err != nil && bookkeeping == nil {
				bookkeeping = fmt.Errorf("after %s: %v", pass, err)
			}
		})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if bookkeeping != nil {
			t.Logf("seed %d: %v", seed, bookkeeping)
			return false
		}
		if nl.OverlapArea() > 1e-6 {
			t.Logf("seed %d: overlap %v", seed, nl.OverlapArea())
			return false
		}
		rowH := nl.Region.Rows[0].Height
		for i := range nl.Cells {
			c := &nl.Cells[i]
			if c.Fixed {
				continue
			}
			if !nl.Region.Outline.ContainsRect(c.Rect().Expand(-1e-9)) {
				t.Logf("seed %d: cell %d outside", seed, i)
				return false
			}
			if c.H <= 1.5*rowH {
				ri := nl.Region.RowAt(c.Pos.Y - c.H/2)
				want := nl.Region.Rows[ri].Y + rowH/2
				if d := c.Pos.Y - want; d > 1e-9 || d < -1e-9 {
					t.Logf("seed %d: cell %d off row", seed, i)
					return false
				}
			}
		}
		if ri.HPWLAfter > rp.HPWLAfter*1.01 {
			t.Logf("seed %d: improver worsened HPWL %v -> %v", seed, rp.HPWLAfter, ri.HPWLAfter)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
