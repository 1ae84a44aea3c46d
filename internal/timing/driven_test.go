package timing

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/netgen"
	"repro/internal/place"
)

// TestDrivenFlowsPinned pins both timing flows bit for bit: PlaceDriven's
// §4.2 run and polish, and MeetRequirement's phase 2, escalation and final
// restore (an unreachable requirement runs all three). The values were
// recorded before the flows became stop policies of the placer's loop, and
// are the same at GOMAXPROCS 1, 2 and 4.
func TestDrivenFlowsPinned(t *testing.T) {
	bits := math.Float64bits
	t.Run("PlaceDriven", func(t *testing.T) {
		nl := netgen.Generate(netgen.Config{Name: "td", Cells: 400, Nets: 520, Rows: 10, Seed: 21})
		res, err := PlaceDriven(nl, placeCfg(), DefaultParams(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := bits(res.After), uint64(0x3e477ad59ef0c28b); got != want {
			t.Errorf("After bits %016x (%g), want %016x", got, res.After, want)
		}
		if res.Analyses != 90 {
			t.Errorf("Analyses = %d, want 90", res.Analyses)
		}
		if got, want := bits(nl.HPWL()), uint64(0x40d63f954d9552b3); got != want {
			t.Errorf("final HPWL bits %016x (%g), want %016x", got, nl.HPWL(), want)
		}
	})
	t.Run("MeetRequirement", func(t *testing.T) {
		nl := netgen.Generate(netgen.Config{Name: "mr", Cells: 300, Nets: 400, Rows: 8, Seed: 22})
		res, err := MeetRequirement(nl, placeCfg(), DefaultParams(), 1e-15, 80)
		if err != nil {
			t.Fatal(err)
		}
		if res.Met || res.Steps != 90 || len(res.Curve) != 91 {
			t.Errorf("Met %v, Steps %d, %d curve points; want false, 90, 91", res.Met, res.Steps, len(res.Curve))
		}
		if got, want := bits(res.Final), uint64(0x3e420704d8a086d9); got != want {
			t.Errorf("Final bits %016x (%g), want %016x", got, res.Final, want)
		}
		if got, want := bits(res.HPWL), uint64(0x40c3868056755bb7); got != want {
			t.Errorf("HPWL bits %016x (%g), want %016x", got, res.HPWL, want)
		}
		if got, want := bits(nl.HPWL()), bits(res.HPWL); got != want {
			t.Errorf("placement HPWL bits %016x, result's %016x", got, want)
		}
		h := fnv.New64a()
		for _, p := range res.Curve {
			var b [24]byte
			binary.LittleEndian.PutUint64(b[0:], uint64(p.Step))
			binary.LittleEndian.PutUint64(b[8:], bits(p.HPWL))
			binary.LittleEndian.PutUint64(b[16:], bits(p.MaxDelay))
			h.Write(b[:])
		}
		if got, want := h.Sum64(), uint64(0x4cffc0c065a1adaa); got != want {
			t.Errorf("curve digest %016x, want %016x", got, want)
		}
	})
}

// TestPlaceDrivenResultCoversPolish: the result's Place reports every
// transformation of nl, the polish's included, and only those: the plain
// probe run that measures the starting delay places a copy.
func TestPlaceDrivenResultCoversPolish(t *testing.T) {
	nl := netgen.Generate(netgen.Config{Name: "td", Cells: 400, Nets: 520, Rows: 10, Seed: 21})
	cfg := placeCfg()
	seen := 0
	cfg.OnIteration = func(place.IterStats) { seen++ }
	res, err := PlaceDriven(nl, cfg, DefaultParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	pr := res.Place
	if pr.Iterations != seen || len(pr.Trace) != seen {
		t.Errorf("Place has %d iterations and %d trace records; OnIteration fired %d times", pr.Iterations, len(pr.Trace), seen)
	}
	if pr.Iterations <= cfg.MaxIter {
		t.Errorf("%d iterations: the polish after the %d-step run is missing", pr.Iterations, cfg.MaxIter)
	}
	var sum place.Phases
	for _, s := range pr.Trace {
		sum.Add(s.Phases)
	}
	if sum != pr.Phases {
		t.Errorf("Place.Phases %+v, trace sums to %+v", pr.Phases, sum)
	}
	if pr.StopReason != place.StopMaxIter {
		t.Errorf("StopReason %q, want the §4.2 run's %q", pr.StopReason, place.StopMaxIter)
	}
	if got := nl.HPWL(); math.Float64bits(got) != math.Float64bits(pr.HPWL) {
		t.Errorf("Place.HPWL %v, returned placement's %v", pr.HPWL, got)
	}
}

// TestDrivenFlowsTolerateUnconvergedCG: both flows apply the placer's
// error rule, so solves capped at two CG iterations, the initial solves
// included, end no flow with an error.
func TestDrivenFlowsTolerateUnconvergedCG(t *testing.T) {
	cfg := place.Config{MaxIter: 15}
	cfg.CG.MaxIter = 2
	nl := netgen.Generate(netgen.Config{Name: "cg", Cells: 200, Nets: 260, Rows: 8, Seed: 23})
	if _, err := PlaceDriven(nl.Clone(), cfg, DefaultParams(), 0); err != nil {
		t.Errorf("PlaceDriven: %v", err)
	}
	res, err := MeetRequirement(nl, cfg, DefaultParams(), 1e-15, 5)
	if err != nil {
		t.Errorf("MeetRequirement: %v", err)
	}
	if res.Steps <= 5 {
		t.Errorf("%d steps: the escalation did not run", res.Steps)
	}
}
