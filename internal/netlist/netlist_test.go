package netlist

import (
	"math"
	"strings"
	"testing"

	"repro/internal/geom"
)

// tiny builds a 4-cell, 2-pad, 3-net netlist used across tests.
func tiny(t *testing.T) *Netlist {
	t.Helper()
	b := NewBuilder("tiny", geom.NewRegion(4, 1, 10))
	b.AddPad("pi", geom.Point{X: 0, Y: 2})
	b.AddPad("po", geom.Point{X: 10, Y: 2})
	b.AddCell("a", 1, 1)
	b.AddCell("b", 1, 1)
	b.AddCell("c", 2, 1)
	b.AddCell("d", 1, 1)
	b.Connect("n1", "pi", "a", "b")
	b.Connect("n2", "b", "c", "d")
	b.Connect("n3", "d", "po")
	nl, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return nl
}

func TestBuilderBasics(t *testing.T) {
	nl := tiny(t)
	if len(nl.Cells) != 6 {
		t.Errorf("cells = %d", len(nl.Cells))
	}
	if len(nl.Nets) != 3 {
		t.Errorf("nets = %d", len(nl.Nets))
	}
	if nl.NumMovable() != 4 {
		t.Errorf("movable = %d", nl.NumMovable())
	}
	if a := nl.MovableArea(); a != 5 {
		t.Errorf("movable area = %v", a)
	}
	if u := nl.Utilization(); math.Abs(u-0.125) > 1e-12 {
		t.Errorf("utilization = %v", u)
	}
	if a := nl.AvgCellArea(); a != 1.25 {
		t.Errorf("avg cell area = %v", a)
	}
}

func TestBuilderDuplicateCell(t *testing.T) {
	b := NewBuilder("dup", geom.NewRegion(1, 1, 10))
	b.AddCell("a", 1, 1)
	b.AddCell("a", 1, 1)
	if _, err := b.Build(); err == nil {
		t.Error("expected duplicate cell error")
	}
}

func TestBuilderUnknownCellInNet(t *testing.T) {
	b := NewBuilder("bad", geom.NewRegion(1, 1, 10))
	b.AddCell("a", 1, 1)
	b.Connect("n", "a", "ghost")
	if _, err := b.Build(); err == nil {
		t.Error("expected unknown-cell error")
	}
}

func TestBuilderDuplicateNet(t *testing.T) {
	b := NewBuilder("dup", geom.NewRegion(1, 1, 10))
	b.AddCell("a", 1, 1)
	b.AddCell("b", 1, 1)
	b.Connect("n", "a", "b")
	b.Connect("n", "b", "a")
	if _, err := b.Build(); err == nil {
		t.Error("expected duplicate net error")
	}
}

func TestBuilderTimingAndPower(t *testing.T) {
	b := NewBuilder("t", geom.NewRegion(1, 1, 10))
	b.AddCell("a", 1, 1)
	b.AddCell("ff", 1, 1)
	b.SetCellTiming("a", 2e-9, false)
	b.SetCellTiming("ff", 1e-9, true)
	b.SetCellPower("a", 0.5)
	b.Connect("n", "a", "ff")
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if nl.Cells[0].Delay != 2e-9 || nl.Cells[0].Power != 0.5 || nl.Cells[0].Seq {
		t.Errorf("cell a attrs wrong: %+v", nl.Cells[0])
	}
	if !nl.Cells[1].Seq {
		t.Error("ff not sequential")
	}
}

func TestBuilderUnknownCellAttrs(t *testing.T) {
	b := NewBuilder("t", geom.NewRegion(1, 1, 10))
	b.SetCellTiming("ghost", 1, false)
	if b.Err() == nil {
		t.Error("expected error for unknown cell in SetCellTiming")
	}
	b2 := NewBuilder("t", geom.NewRegion(1, 1, 10))
	b2.SetCellPower("ghost", 1)
	if b2.Err() == nil {
		t.Error("expected error for unknown cell in SetCellPower")
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	nl := tiny(t)
	bad := nl.Clone()
	bad.Nets[0].Pins = bad.Nets[0].Pins[:1]
	if err := bad.Validate(); err == nil {
		t.Error("expected error for 1-pin net")
	}
	bad = nl.Clone()
	bad.Nets[0].Pins[0].Cell = 99
	if err := bad.Validate(); err == nil {
		t.Error("expected error for out-of-range pin")
	}
	bad = nl.Clone()
	bad.Cells[2].Pos.X = math.NaN()
	if err := bad.Validate(); err == nil {
		t.Error("expected error for NaN position")
	}
	bad = nl.Clone()
	bad.Nets[0].Pins[1].Dir = Output // second driver (pin 0 already drives)
	if err := bad.Validate(); err == nil {
		t.Error("expected error for multi-driver net")
	}
	bad = nl.Clone()
	bad.Cells[2].W = 1000 // blow the utilization
	if err := bad.Validate(); err == nil {
		t.Error("expected error for overfull region")
	}
}

func TestNetDriver(t *testing.T) {
	nl := tiny(t)
	if d := nl.Nets[0].Driver(); d != 0 {
		t.Errorf("driver = %d", d)
	}
	n := Net{Pins: []Pin{{Dir: Input}, {Dir: Input}}}
	if d := n.Driver(); d != -1 {
		t.Errorf("driverless net driver = %d", d)
	}
}

func TestHPWL(t *testing.T) {
	nl := tiny(t)
	// Put everything at known spots.
	nl.Cells[2].Pos = geom.Point{X: 2, Y: 1} // a
	nl.Cells[3].Pos = geom.Point{X: 4, Y: 3} // b
	nl.Cells[4].Pos = geom.Point{X: 6, Y: 1} // c
	nl.Cells[5].Pos = geom.Point{X: 8, Y: 3} // d
	// n1: pi(0,2), a(2,1), b(4,3): bbox 4x2 -> 6
	if got := nl.NetHPWL(0); math.Abs(got-6) > 1e-12 {
		t.Errorf("n1 HPWL = %v", got)
	}
	// n2: b(4,3), c(6,1), d(8,3): bbox 4x2 -> 6
	// n3: d(8,3), po(10,2): bbox 2x1 -> 3
	if got := nl.HPWL(); math.Abs(got-15) > 1e-12 {
		t.Errorf("total HPWL = %v", got)
	}
	nl.Nets[2].Weight = 3
	if got := nl.WeightedHPWL(); math.Abs(got-21) > 1e-12 {
		t.Errorf("weighted HPWL = %v", got)
	}
}

func TestPinOffsetsAffectHPWL(t *testing.T) {
	b := NewBuilder("off", geom.NewRegion(1, 1, 10))
	b.AddCell("a", 2, 1)
	b.AddCell("b", 2, 1)
	ia := b.Cell("a")
	ib := b.Cell("b")
	b.AddNet("n", []Pin{
		{Cell: ia, Offset: geom.Point{X: 1, Y: 0}, Dir: Output},
		{Cell: ib, Offset: geom.Point{X: -1, Y: 0}, Dir: Input},
	})
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	nl.Cells[0].Pos = geom.Point{X: 1, Y: 0.5}
	nl.Cells[1].Pos = geom.Point{X: 9, Y: 0.5}
	// Pin positions: (2,0.5) and (8,0.5) -> HPWL 6, not 8.
	if got := nl.HPWL(); math.Abs(got-6) > 1e-12 {
		t.Errorf("HPWL with offsets = %v, want 6", got)
	}
}

func TestQuadraticWL(t *testing.T) {
	nl := tiny(t)
	for i := range nl.Cells {
		if !nl.Cells[i].Fixed {
			nl.Cells[i].Pos = geom.Point{X: 5, Y: 2}
		}
	}
	// All movables coincide; only pad connections contribute.
	// n1 (w=1/3 per pair): pairs (pi,a),(pi,b),(a,b) => dists² 25,25,0 -> 50/3
	// n2: all zero. n3 (w=1/2): (d,po) dist²=25 -> 12.5
	want := 50.0/3 + 12.5
	if got := nl.QuadraticWL(); math.Abs(got-want) > 1e-9 {
		t.Errorf("QuadraticWL = %v, want %v", got, want)
	}
}

func TestOverlapArea(t *testing.T) {
	b := NewBuilder("ov", geom.NewRegion(4, 1, 10))
	b.AddCell("a", 2, 2)
	b.AddCell("b", 2, 2)
	b.AddCell("c", 2, 2)
	b.AddCell("x", 1, 1)
	b.AddCell("y", 1, 1)
	b.Connect("n", "a", "b")
	b.Connect("n2", "x", "y")
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	nl.Cells[0].Pos = geom.Point{X: 1, Y: 1}
	nl.Cells[1].Pos = geom.Point{X: 2, Y: 1} // overlaps a by 1x2=2
	nl.Cells[2].Pos = geom.Point{X: 8, Y: 1} // disjoint
	nl.Cells[3].Pos = geom.Point{X: 5, Y: 3}
	nl.Cells[4].Pos = geom.Point{X: 5, Y: 3} // x,y fully coincide: 1
	if got := nl.OverlapArea(); math.Abs(got-3) > 1e-12 {
		t.Errorf("OverlapArea = %v, want 3", got)
	}
}

func TestSnapshotRestore(t *testing.T) {
	nl := tiny(t)
	nl.Cells[2].Pos = geom.Point{X: 3, Y: 3}
	snap := nl.Snapshot()
	nl.Cells[2].Pos = geom.Point{X: 7, Y: 1}
	nl.Restore(snap)
	if nl.Cells[2].Pos != (geom.Point{X: 3, Y: 3}) {
		t.Errorf("restore failed: %v", nl.Cells[2].Pos)
	}
}

func TestRestorePanicsOnMismatch(t *testing.T) {
	nl := tiny(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	nl.Restore(make(Placement, 2))
}

func TestDisplacementMetrics(t *testing.T) {
	a := Placement{{X: 0, Y: 0}, {X: 1, Y: 1}}
	b := Placement{{X: 3, Y: 4}, {X: 1, Y: 2}}
	if d := MaxDisplacement(a, b); math.Abs(d-5) > 1e-12 {
		t.Errorf("MaxDisplacement = %v", d)
	}
	if d := TotalDisplacement(a, b); math.Abs(d-6) > 1e-12 {
		t.Errorf("TotalDisplacement = %v", d)
	}
}

func TestCellNetsIndex(t *testing.T) {
	nl := tiny(t)
	idx := nl.CellNets()
	// cell "b" (index 3) is on n1 and n2.
	if len(idx[3]) != 2 {
		t.Errorf("cell b nets = %v", idx[3])
	}
	// Cached instance reused.
	if &idx[0] != &nl.CellNets()[0] {
		t.Error("index not cached")
	}
	nl.InvalidateIndex()
	if nl.cellNets != nil {
		t.Error("InvalidateIndex did not clear")
	}
}

func TestCloneIsDeep(t *testing.T) {
	nl := tiny(t)
	cp := nl.Clone()
	cp.Cells[2].Pos = geom.Point{X: 42, Y: 42}
	cp.Nets[0].Pins[0].Cell = 1
	if nl.Cells[2].Pos == (geom.Point{X: 42, Y: 42}) {
		t.Error("cells shared")
	}
	if nl.Nets[0].Pins[0].Cell == 1 {
		t.Error("pins shared")
	}
}

func TestStats(t *testing.T) {
	nl := tiny(t)
	s := ComputeStats(nl)
	if s.Cells != 4 || s.Pads != 2 || s.Nets != 3 || s.Rows != 4 {
		t.Errorf("stats = %+v", s)
	}
	if s.Pins != 8 || s.MaxDegree != 3 {
		t.Errorf("pins/maxdeg = %d/%d", s.Pins, s.MaxDegree)
	}
	if math.Abs(s.AvgDegree-8.0/3) > 1e-12 {
		t.Errorf("avg degree = %v", s.AvgDegree)
	}
	if !strings.Contains(s.String(), "tiny") {
		t.Errorf("String() = %q", s.String())
	}
}

// TestIsBlock: a movable cell taller than 1.5 rows is a block; a fixed
// one never is, and a region without rows counts rows one unit high.
func TestIsBlock(t *testing.T) {
	nl := &Netlist{
		Region: geom.NewRegion(4, 2, 20), // rows 2 units high
		Cells: []Cell{
			{W: 1, H: 3}, {W: 1, H: 3.5}, {W: 1, H: 3.5, Fixed: true}, {W: 1, H: 1.6},
		},
	}
	for ci, want := range []bool{false, true, false, false} {
		if got := nl.IsBlock(ci); got != want {
			t.Errorf("rows: IsBlock(%d) = %v, want %v", ci, got, want)
		}
	}
	nl.Region.Rows = nil
	for ci, want := range []bool{true, true, false, true} {
		if got := nl.IsBlock(ci); got != want {
			t.Errorf("rowless: IsBlock(%d) = %v, want %v", ci, got, want)
		}
	}
}

func TestPinDirString(t *testing.T) {
	if Input.String() != "in" || Output.String() != "out" || Inout.String() != "inout" {
		t.Error("PinDir strings wrong")
	}
}

func TestNormalizeDefaults(t *testing.T) {
	nl := &Netlist{
		Cells: []Cell{{Name: "a"}, {Name: "b", W: 2, H: 1}},
		Nets:  []Net{{Name: "n", Pins: []Pin{{Cell: 0}, {Cell: 1}}}},
	}
	nl.Normalize()
	if nl.Nets[0].Weight != 1 {
		t.Error("weight not defaulted")
	}
	if nl.Cells[0].W <= 0 || nl.Cells[0].H <= 0 {
		t.Error("degenerate cell not fixed up")
	}
}
