package place

import (
	"context"
	"math"
	"testing"

	"repro/internal/netgen"
	"repro/internal/netlist"
)

func warmNetlist(seed int64) *netlist.Netlist {
	return netgen.Generate(netgen.Config{
		Name: "warm", Cells: 400, Nets: 520, Rows: 8, Seed: seed,
	})
}

// TestWarmStartAloneKeepsQuality makes sure seeding CG with the previous
// response does not change where the iteration ends up, against the same
// engine solving every transformation from a zero guess.
func TestWarmStartAloneKeepsQuality(t *testing.T) {
	run := func(zeroGuess bool) Result {
		nl := warmNetlist(52)
		p := New(nl, Config{MaxIter: 60})
		p.zeroGuess = zeroGuess
		res, err := p.Run(context.Background())
		if err != nil {
			t.Fatalf("zeroGuess=%v: %v", zeroGuess, err)
		}
		return res
	}
	base := run(true)
	warm := run(false)
	if d := math.Abs(warm.HPWL - base.HPWL); d > 0.15*base.HPWL {
		t.Errorf("HPWL: warm %g vs zero-guess %g", warm.HPWL, base.HPWL)
	}
	if d := math.Abs(warm.Overflow - base.Overflow); d > 0.05 {
		t.Errorf("overflow: warm %g vs zero-guess %g", warm.Overflow, base.Overflow)
	}
}
