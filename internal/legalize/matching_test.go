package legalize

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// crossedPairs builds two equal-width cell pairs placed so that their nets
// cross: matching should uncross them.
func crossedPairs(t *testing.T) (*netlist.Netlist, []*Segment) {
	t.Helper()
	b := netlist.NewBuilder("x", geom.NewRegion(1, 1, 40))
	b.AddPad("pl", geom.Point{X: 0, Y: 0.5})
	b.AddPad("pr", geom.Point{X: 40, Y: 0.5})
	b.AddCell("a", 2, 1)
	b.AddCell("c", 2, 1)
	b.Connect("na", "pl", "a")
	b.Connect("nc", "c", "pr")
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Crossed: the left-connected cell sits right and vice versa.
	nl.Cells[2].Pos = geom.Point{X: 30, Y: 0.5} // a (wants left)
	nl.Cells[3].Pos = geom.Point{X: 10, Y: 0.5} // c (wants right)
	seg := &Segment{Row: 0, Y: 0.5, X0: 0, X1: 40, cells: []int{2, 3}, used: 4}
	return nl, []*Segment{seg}
}

func TestMatchingUncrossesPairs(t *testing.T) {
	nl, segs := crossedPairs(t)
	before := nl.HPWL()
	moves := MatchingPass(nl, segs, 4)
	if moves == 0 {
		t.Fatal("matching found no improvement on crossed pairs")
	}
	if nl.HPWL() >= before {
		t.Errorf("HPWL did not improve: %v -> %v", before, nl.HPWL())
	}
	if nl.Cells[2].Pos.X > nl.Cells[3].Pos.X {
		t.Error("pairs still crossed")
	}
}

func TestMatchingNeverWorsens(t *testing.T) {
	nl, segs := crossedPairs(t)
	// First pass improves; a second pass on the optimal state must be a
	// no-op and never worsen.
	MatchingPass(nl, segs, 4)
	opt := nl.HPWL()
	moves := MatchingPass(nl, segs, 4)
	if moves != 0 {
		t.Errorf("matching claims %d improvements at the optimum", moves)
	}
	if nl.HPWL() > opt+1e-9 {
		t.Errorf("second pass worsened HPWL: %v -> %v", opt, nl.HPWL())
	}
}

func TestMatchingKeepsWidthClasses(t *testing.T) {
	// A wide and a narrow cell must not trade places even when crossed.
	b := netlist.NewBuilder("w", geom.NewRegion(1, 1, 40))
	b.AddPad("pl", geom.Point{X: 0, Y: 0.5})
	b.AddPad("pr", geom.Point{X: 40, Y: 0.5})
	b.AddCell("wide", 8, 1)
	b.AddCell("narrow", 1, 1)
	b.Connect("na", "pl", "wide")
	b.Connect("nc", "narrow", "pr")
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	nl.Cells[2].Pos = geom.Point{X: 30, Y: 0.5}
	nl.Cells[3].Pos = geom.Point{X: 10, Y: 0.5}
	seg := &Segment{Row: 0, Y: 0.5, X0: 0, X1: 40, cells: []int{2, 3}, used: 9}
	MatchingPass(nl, []*Segment{seg}, 4)
	// Different width classes -> no exchange; positions unchanged.
	if nl.Cells[2].Pos.X != 30 || nl.Cells[3].Pos.X != 10 {
		t.Error("width classes were mixed")
	}
}

func TestRebindSegments(t *testing.T) {
	nl, segs := crossedPairs(t)
	// Manually swap and rebind.
	nl.Cells[2].Pos, nl.Cells[3].Pos = nl.Cells[3].Pos, nl.Cells[2].Pos
	rebindSegments(nl, segs)
	if len(segs[0].cells) != 2 {
		t.Errorf("segment lost cells: %v", segs[0].cells)
	}
	if segs[0].used != 4 {
		t.Errorf("used = %v", segs[0].used)
	}
}

// TestMatchingRespectsSegmentCapacity: two groups of one width class each
// want to trade a 1.2-wide cell in row 0 for a 1.0-wide cell in row 1.
// Row 1 has 0.3 units of slack, enough for one trade but not for two, so
// the second group must see the first one's width in row 1 and stay put.
func TestMatchingRespectsSegmentCapacity(t *testing.T) {
	b := netlist.NewBuilder("cap", geom.NewRegion(2, 1, 12))
	b.AddPad("top0", geom.Point{X: 0.6, Y: 2})
	b.AddPad("bot0", geom.Point{X: 0.5, Y: 0})
	b.AddPad("top1", geom.Point{X: 8.3, Y: 2})
	b.AddPad("bot1", geom.Point{X: 8.2, Y: 0})
	cells := []struct {
		name string
		w, x float64
		row  int
	}{
		{"a0", 1.2, 0.6, 0}, {"a1", 1.2, 8.3, 0}, {"f0", 3, 3.5, 0},
		{"b0", 1, 0.5, 1}, {"f1", 3, 2.5, 1}, {"f2", 3.7, 5.85, 1},
		{"b1", 1, 8.2, 1}, {"f3", 3, 10.2, 1},
	}
	for _, c := range cells {
		b.AddCell(c.name, c.w, 1)
	}
	// a_k wants row 1 and b_k wants row 0; the fillers are unconnected.
	b.Connect("na0", "top0", "a0")
	b.Connect("nb0", "bot0", "b0")
	b.Connect("na1", "top1", "a1")
	b.Connect("nb1", "bot1", "b1")
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	segs := []*Segment{{Row: 0, Y: 0.5, X0: 0, X1: 12}, {Row: 1, Y: 1.5, X0: 0, X1: 12}}
	for k, c := range cells {
		ci := 4 + k
		nl.Cells[ci].Pos = geom.Point{X: c.x, Y: segs[c.row].Y}
		segs[c.row].cells = append(segs[c.row].cells, ci)
		segs[c.row].used += c.w
	}
	if got := MatchingPass(nl, segs, 2); got != 1 {
		t.Errorf("committed %d group moves, want 1 (the second overfills row 1)", got)
	}
	if err := checkSegments(nl, segs); err != nil {
		t.Error(err)
	}
	for ci := range nl.Cells {
		if r := nl.Cells[ci].Rect(); r.Lo.X < -1e-9 || r.Hi.X > 12+1e-9 {
			t.Errorf("cell %d spans [%v, %v], past the row", ci, r.Lo.X, r.Hi.X)
		}
	}
}
