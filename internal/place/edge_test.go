package place

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// TestFixedOnlyNetlist: a design with no movable cells must terminate
// immediately and harmlessly.
func TestFixedOnlyNetlist(t *testing.T) {
	b := netlist.NewBuilder("fixed", geom.NewRegion(2, 1, 10))
	b.AddPad("a", geom.Point{X: 0, Y: 1})
	b.AddPad("c", geom.Point{X: 10, Y: 1})
	b.Connect("n", "a", "c")
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Global(nl, Config{MaxIter: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !settled(res.StopReason) && res.Iterations > 5 {
		t.Errorf("fixed-only run misbehaved: %+v", res)
	}
}

// TestSingleMovableCell: one movable cell between pads lands between them.
func TestSingleMovableCell(t *testing.T) {
	b := netlist.NewBuilder("one", geom.NewRegion(2, 1, 10))
	b.AddPad("l", geom.Point{X: 0, Y: 1})
	b.AddPad("r", geom.Point{X: 10, Y: 1})
	b.AddCell("m", 1, 1)
	b.Connect("n1", "l", "m")
	b.Connect("n2", "m", "r")
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Global(nl, Config{MaxIter: 30}); err != nil {
		t.Fatal(err)
	}
	x := nl.Cells[2].Pos.X
	if x < 2 || x > 8 {
		t.Errorf("single cell at x=%v, want between the pads", x)
	}
}

// TestDenseUtilization: utilization near 1 still terminates and keeps
// cells inside.
func TestDenseUtilization(t *testing.T) {
	b := netlist.NewBuilder("dense", geom.NewRegion(4, 1, 26))
	names := make([]string, 100)
	for i := range names {
		names[i] = string(rune('a'+i%26)) + string(rune('0'+i/26))
		b.AddCell(names[i], 1, 1) // 100 area in a 104 region: util 0.96
	}
	for i := 0; i+1 < len(names); i += 2 {
		b.Connect("n"+names[i], names[i], names[i+1])
	}
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Global(nl, Config{MaxIter: 80}); err != nil {
		t.Fatal(err)
	}
	for i := range nl.Cells {
		if !nl.Region.Outline.Contains(nl.Cells[i].Pos) {
			t.Fatalf("cell %d escaped at util 0.96", i)
		}
	}
}

// TestPullLengthMismatchPanics guards the external force interface.
func TestPullLengthMismatchPanics(t *testing.T) {
	b := netlist.NewBuilder("p", geom.NewRegion(2, 1, 10))
	b.AddCell("a", 1, 1)
	b.AddCell("c", 1, 1)
	b.Connect("n", "a", "c")
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := New(nl, Config{})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	p.Pull(make([]geom.Point, 1))
}
