package floorplan

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/netgen"
	"repro/internal/netlist"
	"repro/internal/place"
)

func TestRunMixedBlockCell(t *testing.T) {
	nl := netgen.Generate(netgen.Config{
		Name: "fp", Cells: 250, Nets: 330, Rows: 24, Blocks: 4, Seed: 111,
	})
	res, err := Run(nl, place.Config{MaxIter: 80})
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks != 4 {
		t.Errorf("blocks = %d", res.Blocks)
	}
	if ov := nl.OverlapArea(); ov > 1e-6 {
		t.Errorf("overlap after floorplanning = %v", ov)
	}
	for i := range nl.Cells {
		c := &nl.Cells[i]
		if !c.Fixed && !nl.Region.Outline.ContainsRect(c.Rect().Expand(-1e-9)) {
			t.Errorf("cell %q outside region", c.Name)
		}
	}
	if res.HPWL <= 0 {
		t.Error("no HPWL")
	}
}

func TestReshapeBlockImprovesIncidentWL(t *testing.T) {
	// A tall block connected to pads left and right: flattening it brings
	// its center pins closer to both.
	b := netlist.NewBuilder("rs", geom.Region{Outline: geom.NewRect(0, 0, 40, 40)})
	b.AddPad("pl", geom.Point{X: 0, Y: 20})
	b.AddPad("pr", geom.Point{X: 40, Y: 20})
	b.AddBlock("blk", 4, 16)
	ib := b.Cell("blk")
	b.AddNet("nl_", []netlist.Pin{{Cell: 0, Dir: netlist.Output}, {Cell: ib, Offset: geom.Point{X: -2, Y: 7}, Dir: netlist.Input}})
	b.AddNet("nr_", []netlist.Pin{{Cell: ib, Offset: geom.Point{X: 2, Y: -7}, Dir: netlist.Output}, {Cell: 1, Dir: netlist.Input}})
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	nl.Cells[ib].Pos = geom.Point{X: 20, Y: 20}
	before := nl.HPWL()
	if !ReshapeBlock(nl, ib, 0.25, 4) {
		t.Fatal("no reshape happened")
	}
	// Area preserved.
	if a := nl.Cells[ib].Area(); a < 63.9 || a > 64.1 {
		t.Errorf("area changed: %v", a)
	}
	if nl.HPWL() >= before {
		t.Errorf("reshape did not shorten wires: %v >= %v", nl.HPWL(), before)
	}
}

func TestRunRowlessRegion(t *testing.T) {
	nl := netgen.Generate(netgen.Config{
		Name: "rl", Cells: 60, Nets: 80, Rows: 12, Blocks: 3, Seed: 114,
	})
	nl.Region.Rows = nil
	res, err := Run(nl, place.Config{MaxIter: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks == 0 {
		t.Error("no blocks detected in row-less mode")
	}
}
