package eco

import (
	"testing"

	"repro/internal/netgen"
	"repro/internal/netlist"
	"repro/internal/place"
)

func placedCircuit(t *testing.T, cells int, seed int64) *netlist.Netlist {
	t.Helper()
	nl := netgen.Generate(netgen.Config{Name: "e", Cells: cells, Nets: cells + cells/3, Rows: 8, Seed: seed})
	if _, err := place.Global(nl, place.Config{MaxIter: 60}); err != nil {
		t.Fatal(err)
	}
	return nl
}

func TestApplyAddsCellsAndNets(t *testing.T) {
	nl := placedCircuit(t, 150, 101)
	n0 := len(nl.Cells)
	added, err := Apply(nl, []Change{
		{RemoveNet: -1, AddCell: &netlist.Cell{Name: "new1", W: 2, H: 1}},
		{RemoveNet: -1, AddCell: &netlist.Cell{Name: "new2", W: 1, H: 1}},
		{RemoveNet: -1, AddNet: &netlist.Net{Name: "nn", Pins: []netlist.Pin{
			{Cell: n0, Dir: netlist.Output},
			{Cell: n0 + 1, Dir: netlist.Input},
			{Cell: 3, Dir: netlist.Input},
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 2 || len(nl.Cells) != n0+2 {
		t.Fatalf("added = %v", added)
	}
	// New cells seeded near their neighbor (cell 3).
	if d := nl.Cells[n0].Pos.Dist(nl.Cells[3].Pos); d > nl.Region.W()/2 {
		t.Errorf("seed position %v far from neighbor %v", nl.Cells[n0].Pos, nl.Cells[3].Pos)
	}
}

func TestApplyResizeAndRemove(t *testing.T) {
	nl := placedCircuit(t, 100, 102)
	w0 := nl.Cells[5].W
	nNets := len(nl.Nets)
	if _, err := Apply(nl, []Change{
		{RemoveNet: -1, ResizeCell: &Resize{Index: 5, Factor: 1.5}},
		{RemoveNet: 2},
	}); err != nil {
		t.Fatal(err)
	}
	if nl.Cells[5].W != w0*1.5 {
		t.Errorf("resize failed: %v", nl.Cells[5].W)
	}
	if len(nl.Nets) != nNets-1 {
		t.Errorf("net not removed: %d", len(nl.Nets))
	}
}

func TestApplyErrors(t *testing.T) {
	nl := placedCircuit(t, 50, 103)
	cases := [][]Change{
		{{RemoveNet: -1}}, // empty change
		{{RemoveNet: 9999}},
		{{RemoveNet: -1, ResizeCell: &Resize{Index: -1, Factor: 2}}},
		{{RemoveNet: -1, ResizeCell: &Resize{Index: 0, Factor: 0}}},
		{{RemoveNet: -1, AddNet: &netlist.Net{Name: "bad", Pins: []netlist.Pin{{Cell: 1}, {Cell: 12345}}}}},
	}
	for i, chs := range cases {
		if _, err := Apply(nl.Clone(), chs); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestReplaceDisturbsLittle(t *testing.T) {
	nl := placedCircuit(t, 300, 104)
	pre := nl.Snapshot()
	n0 := len(nl.Cells)
	if _, err := Apply(nl, []Change{
		{RemoveNet: -1, AddCell: &netlist.Cell{Name: "x1", W: 2, H: 1}},
		{RemoveNet: -1, AddNet: &netlist.Net{Name: "xn", Pins: []netlist.Pin{
			{Cell: n0, Dir: netlist.Output},
			{Cell: 10, Dir: netlist.Input},
			{Cell: 11, Dir: netlist.Input},
		}}},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := Replace(nl, pre, place.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// "An incrementally changed netlist results in small changes in the
	// placement": mean displacement a couple of row heights at most — the
	// spring network spreads any local force a little — and well under
	// 2 % of the chip span.
	mean := res.TotalDisplacement / float64(n0)
	if mean > 2.0 {
		t.Errorf("mean displacement %v rows after tiny ECO", mean)
	}
	span := nl.Region.W() + nl.Region.H()
	if mean > 0.02*span {
		t.Errorf("mean displacement %v above 2%% of span %v", mean, span)
	}
	if res.MaxDisplacement > nl.Region.W()/2 {
		t.Errorf("max displacement %v is half the chip", res.MaxDisplacement)
	}
}

func TestReplaceAbsorbsLocalDensitySpike(t *testing.T) {
	nl := placedCircuit(t, 200, 105)
	pre := nl.Snapshot()
	// Add a burst of cells all connected to one existing cell: they seed
	// on top of it and must be spread out by the density forces.
	var changes []Change
	base := len(nl.Cells)
	for i := 0; i < 10; i++ {
		changes = append(changes, Change{RemoveNet: -1, AddCell: &netlist.Cell{W: 2, H: 1}})
	}
	for i := 0; i < 10; i++ {
		changes = append(changes, Change{RemoveNet: -1, AddNet: &netlist.Net{
			Pins: []netlist.Pin{
				{Cell: base + i, Dir: netlist.Output},
				{Cell: 7, Dir: netlist.Input},
			},
		}})
	}
	if _, err := Apply(nl, changes); err != nil {
		t.Fatal(err)
	}
	res, err := Replace(nl, pre, place.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The new cells must not all sit on one point anymore.
	distinct := map[[2]int]bool{}
	for i := 0; i < 10; i++ {
		p := nl.Cells[base+i].Pos
		distinct[[2]int{int(p.X), int(p.Y)}] = true
	}
	if len(distinct) < 3 {
		t.Errorf("ECO cells still piled: %d distinct unit positions", len(distinct))
	}
	// Like every run, an ECO run ends in a declared stop reason: max-iter,
	// since it always runs its whole step budget.
	switch res.Place.StopReason {
	case place.StopCriterion, place.StopStagnation, place.StopMaxIter, place.StopCancelled, place.StopDeadline:
	default:
		t.Errorf("StopReason %q is not a declared place.Stop* constant", res.Place.StopReason)
	}
	if res.Place.StopReason != place.StopMaxIter || res.Place.Iterations != 15 {
		t.Errorf("stop %q after %d steps, want max-iter after the 15-step budget", res.Place.StopReason, res.Place.Iterations)
	}
}
