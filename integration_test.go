package placement_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	placement "repro"
	"repro/internal/density"
	"repro/internal/route"
	"repro/internal/thermal"
)

// TestIntegrationFullFlow drives the complete production pipeline:
// generate → global place → legalize → text round trip → re-read →
// timing analysis → ECO → incremental re-place, asserting the invariants
// a downstream user depends on at every stage.
func TestIntegrationFullFlow(t *testing.T) {
	nl := placement.Generate(placement.GenConfig{
		Name: "flow", Cells: 400, Nets: 520, Rows: 10, Seed: 2024,
	})

	// Global placement.
	res, err := placement.Global(nl, placement.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason != placement.StopCriterion && res.StopReason != placement.StopStagnation {
		t.Fatalf("global placement did not converge: %+v", res)
	}
	globalHPWL := nl.HPWL()

	// Final placement.
	if _, err := placement.Legalize(nl, placement.LegalizeOptions{}); err != nil {
		t.Fatal(err)
	}
	if ov := nl.OverlapArea(); ov > 1e-6 {
		t.Fatalf("overlap after legalization: %v", ov)
	}
	legalHPWL := nl.HPWL()
	if legalHPWL > 2*globalHPWL {
		t.Errorf("legalization doubled the wire length: %v -> %v", globalHPWL, legalHPWL)
	}

	// Serialize and re-read: placement survives.
	var buf bytes.Buffer
	if err := placement.WriteNetlist(&buf, nl); err != nil {
		t.Fatal(err)
	}
	again, err := placement.ReadNetlist(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(again.HPWL()-legalHPWL) > 1e-6*legalHPWL {
		t.Errorf("round trip changed HPWL: %v vs %v", again.HPWL(), legalHPWL)
	}

	// Timing analysis on the re-read design.
	params := placement.CalibratedTimingParams(again)
	rep := placement.AnalyzeTiming(again, params)
	if rep.MaxDelay <= 0 || len(rep.CriticalPath) == 0 {
		t.Fatalf("timing on re-read design: %+v", rep)
	}
	var reportBuf strings.Builder
	placement.WriteTimingReport(&reportBuf, again, params, rep)
	if !strings.Contains(reportBuf.String(), "Critical path") {
		t.Error("timing report malformed")
	}

	// ECO on the legalized design.
	pre := again.Snapshot()
	newIdx := len(again.Cells)
	if _, err := placement.ApplyECO(again, []placement.ECOChange{
		{RemoveNet: -1, AddCell: &placement.Cell{Name: "eco0", W: 2, H: 1}},
		{RemoveNet: -1, AddNet: &placement.Net{Name: "econ", Pins: []placement.Pin{
			{Cell: newIdx, Dir: placement.Output},
			{Cell: 3, Dir: placement.Input},
		}}},
	}); err != nil {
		t.Fatal(err)
	}
	eres, err := placement.ReplaceECO(again, pre, placement.Config{})
	if err != nil {
		t.Fatal(err)
	}
	span := again.Region.W() + again.Region.H()
	if eres.TotalDisplacement/float64(len(pre)) > 0.02*span {
		t.Errorf("ECO disturbed the placement: mean displacement %v on span %v",
			eres.TotalDisplacement/float64(len(pre)), span)
	}
}

// TestIntegrationBookshelfFlow: Bookshelf in → place → Bookshelf out →
// re-read, the interchange path external users take.
func TestIntegrationBookshelfFlow(t *testing.T) {
	nl := placement.Generate(placement.GenConfig{
		Name: "bsflow", Cells: 150, Nets: 200, Rows: 6, Seed: 2025,
	})
	var nodes, nets, pl, scl bytes.Buffer
	if err := placement.WriteBookshelf(nl, &nodes, &nets, &pl, &scl); err != nil {
		t.Fatal(err)
	}
	loaded, err := placement.ReadBookshelf("bsflow", &nodes, &nets, &pl, &scl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := placement.Global(loaded, placement.Config{MaxIter: 40}); err != nil {
		t.Fatal(err)
	}
	if _, err := placement.Legalize(loaded, placement.LegalizeOptions{}); err != nil {
		t.Fatal(err)
	}
	if loaded.OverlapArea() > 1e-6 {
		t.Error("bookshelf-loaded design not legal after the flow")
	}
}

// TestIntegrationEnginesAgreeOnLegality: all three engines produce legal
// results through the shared final placer on the same circuit.
func TestIntegrationEnginesAgreeOnLegality(t *testing.T) {
	base := placement.Generate(placement.GenConfig{
		Name: "engines", Cells: 200, Nets: 260, Rows: 8, Seed: 2026,
	})
	flows := map[string]func(nl *placement.Netlist) error{
		"kraftwerk": func(nl *placement.Netlist) error {
			_, err := placement.Global(nl, placement.Config{MaxIter: 60})
			return err
		},
		"gordian": func(nl *placement.Netlist) error {
			_, err := placement.GlobalGordian(nl, placement.GordianConfig{})
			return err
		},
		"anneal": func(nl *placement.Netlist) error {
			_, err := placement.GlobalAnneal(nl, placement.AnnealConfig{Seed: 1})
			return err
		},
	}
	random := base.Clone()
	placement.ScatterRandom(random, 9)
	randomHPWL := random.HPWL()
	for name, run := range flows {
		nl := base.Clone()
		if err := run(nl); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := placement.Legalize(nl, placement.LegalizeOptions{}); err != nil {
			t.Fatalf("%s legalize: %v", name, err)
		}
		if ov := nl.OverlapArea(); ov > 1e-6 {
			t.Errorf("%s: overlap %v", name, ov)
		}
		if nl.HPWL() >= randomHPWL {
			t.Errorf("%s: HPWL %v no better than random %v", name, nl.HPWL(), randomHPWL)
		}
	}
}

// TestIntegrationCongestionAndThermalHooks: both §5 map blends run inside
// the real placement loop without degrading legality.
func TestIntegrationCongestionAndThermalHooks(t *testing.T) {
	nl := placement.Generate(placement.GenConfig{
		Name: "hooks", Cells: 200, Nets: 260, Rows: 8, Seed: 2027,
	})
	for i := 0; i < 15; i++ {
		nl.Cells[i].Power = 25
	}
	cfg := placement.Config{MaxIter: 50, ExtraDemand: func(g *density.Grid) []float64 {
		out := route.Estimate(nl, g.NX, g.NY, 0).ExtraDemand(g, 0.5)
		for i, v := range thermal.Solve(nl, g.NX, g.NY, 1).ExtraDemand(g, 1) {
			out[i] += v
		}
		return out
	}}
	if _, err := placement.Global(nl, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := placement.Legalize(nl, placement.LegalizeOptions{}); err != nil {
		t.Fatal(err)
	}
	if nl.OverlapArea() > 1e-6 {
		t.Error("combined-hook flow not legal")
	}
}

// TestIntegrationFloorplanThenTiming: mixed block/cell floorplanning
// followed by timing analysis and a clock check.
func TestIntegrationFloorplanThenTiming(t *testing.T) {
	nl := placement.Generate(placement.GenConfig{
		Name: "fp+t", Cells: 250, Nets: 330, Rows: 24, Blocks: 3, Seed: 2028,
	})
	fres, err := placement.Floorplan(nl, placement.Config{MaxIter: 80})
	if err != nil {
		t.Fatal(err)
	}
	if fres.Blocks != 3 {
		t.Errorf("blocks = %d", fres.Blocks)
	}
	params := placement.CalibratedTimingParams(nl)
	rep := placement.AnalyzeTiming(nl, params)
	if rep.MaxDelay <= 0 {
		t.Fatal("no delay on floorplanned design")
	}
}
