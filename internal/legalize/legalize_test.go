package legalize

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/netgen"
	"repro/internal/netlist"
	"repro/internal/place"
)

func globalPlaced(t *testing.T, cells int, seed int64, blocks int) *netlist.Netlist {
	t.Helper()
	nl := netgen.Generate(netgen.Config{
		Name: "lg", Cells: cells, Nets: cells + cells/3,
		Rows: 10, Blocks: blocks, Seed: seed,
	})
	if _, err := place.Global(nl, place.Config{MaxIter: 60}); err != nil {
		t.Fatal(err)
	}
	return nl
}

// checkSegments checks the segment bookkeeping: every segment's used width
// equals the summed width of its cells and fits its capacity.
func checkSegments(nl *netlist.Netlist, segs []*Segment) error {
	for k, s := range segs {
		var w float64
		for _, ci := range s.cells {
			w += nl.Cells[ci].W
		}
		if math.Abs(w-s.used) > 1e-9 {
			return fmt.Errorf("segment %d (row %d): cells sum to %v, used = %v", k, s.Row, w, s.used)
		}
		if w > s.capacity()+1e-9 {
			return fmt.Errorf("segment %d (row %d): cells sum to %v, capacity %v", k, s.Row, w, s.capacity())
		}
	}
	return nil
}

func checkLegal(t *testing.T, nl *netlist.Netlist) {
	t.Helper()
	if ov := nl.OverlapArea(); ov > 1e-6 {
		t.Errorf("overlap area after legalization = %v", ov)
	}
	rowH := nl.Region.Rows[0].Height
	for i := range nl.Cells {
		c := &nl.Cells[i]
		if c.Fixed {
			continue
		}
		if !nl.Region.Outline.ContainsRect(c.Rect().Expand(-1e-9)) {
			t.Errorf("cell %d rect %v outside region", i, c.Rect())
		}
		if c.H <= 1.5*rowH {
			// Standard cells sit centered in a row.
			ri := nl.Region.RowAt(c.Pos.Y - c.H/2)
			want := nl.Region.Rows[ri].Y + rowH/2
			if math.Abs(c.Pos.Y-want) > 1e-9 {
				t.Errorf("cell %d y=%v not on a row center", i, c.Pos.Y)
			}
		}
	}
}

func TestLegalizeRemovesOverlaps(t *testing.T) {
	nl := globalPlaced(t, 300, 71, 0)
	res, err := Legalize(nl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkLegal(t, nl)
	if res.HPWLAfter <= 0 {
		t.Error("no HPWL recorded")
	}
	if res.Displacement <= 0 {
		t.Error("legalization reported zero displacement on overlapping input")
	}
}

func TestLegalizeKeepsHPWLReasonable(t *testing.T) {
	nl := globalPlaced(t, 300, 72, 0)
	res, err := Legalize(nl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Legalization should not blow up the wire length.
	if res.HPWLAfter > 1.6*res.HPWLBefore {
		t.Errorf("legalization inflated HPWL %vx", res.HPWLAfter/res.HPWLBefore)
	}
}

func TestLegalizeWithBlocks(t *testing.T) {
	nl := globalPlaced(t, 250, 73, 3)
	res, err := Legalize(nl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks != 3 {
		t.Errorf("blocks = %d", res.Blocks)
	}
	checkLegal(t, nl)
}

func TestDetailedPassImproves(t *testing.T) {
	nl := globalPlaced(t, 300, 74, 0)
	with := nl.Clone()
	resNo, err := Legalize(nl, Options{DetailedPasses: -1})
	if err != nil {
		t.Fatal(err)
	}
	resYes, err := Legalize(with, Options{DetailedPasses: 5})
	if err != nil {
		t.Fatal(err)
	}
	if resYes.HPWLAfter > resNo.HPWLAfter {
		t.Errorf("detailed pass made HPWL worse: %v > %v", resYes.HPWLAfter, resNo.HPWLAfter)
	}
	if resYes.Swaps == 0 {
		t.Error("detailed pass found no improving move on a fresh legalization")
	}
}

func TestLegalizeIdempotentOnLegalInput(t *testing.T) {
	nl := globalPlaced(t, 200, 75, 0)
	if _, err := Legalize(nl, Options{DetailedPasses: -1}); err != nil {
		t.Fatal(err)
	}
	snap := nl.Snapshot()
	res, err := Legalize(nl, Options{DetailedPasses: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Already legal cells should barely move.
	if d := netlist.MaxDisplacement(snap, nl.Snapshot()); d > nl.Region.Rows[0].Height*2 {
		t.Errorf("re-legalization moved cells up to %v", d)
	}
	_ = res
}

func TestLegalizeErrorsWithoutRows(t *testing.T) {
	nl := netgen.Generate(netgen.Config{Name: "nr", Cells: 20, Nets: 25, Rows: 2, Seed: 76})
	nl.Region.Rows = nil
	if _, err := Legalize(nl, Options{}); err == nil {
		t.Error("expected error for row-less region")
	}
}

func TestLegalizeBlocksSeparates(t *testing.T) {
	b := netlist.NewBuilder("blk", geom.Region{Outline: geom.NewRect(0, 0, 40, 40)})
	b.AddBlock("b1", 10, 10)
	b.AddBlock("b2", 10, 10)
	b.AddBlock("b3", 10, 10)
	b.Connect("n", "b1", "b2", "b3")
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for i := range nl.Cells {
		nl.Cells[i].Pos = geom.Point{X: 20, Y: 20}
	}
	LegalizeBlocks(nl, []int{0, 1, 2})
	if ov := nl.OverlapArea(); ov > 1e-6 {
		t.Errorf("blocks still overlap by %v", ov)
	}
	for i := range nl.Cells {
		if !nl.Region.Outline.ContainsRect(nl.Cells[i].Rect().Expand(-1e-9)) {
			t.Errorf("block %d outside region", i)
		}
	}
}

func TestClumpingMinimalDisplacement(t *testing.T) {
	// Three 2-wide cells desired at 5, 5.5, 20 in a [0,30] segment: the
	// first two clump around their mean, the third stays put.
	b := netlist.NewBuilder("cl", geom.NewRegion(1, 1, 30))
	b.AddCell("a", 2, 1)
	b.AddCell("b", 2, 1)
	b.AddCell("c", 2, 1)
	b.Connect("n", "a", "b", "c")
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	nl.Cells[0].Pos = geom.Point{X: 5, Y: 0.5}
	nl.Cells[1].Pos = geom.Point{X: 5.5, Y: 0.5}
	nl.Cells[2].Pos = geom.Point{X: 20, Y: 0.5}
	seg := &Segment{Row: 0, Y: 0.5, X0: 0, X1: 30, cells: []int{0, 1, 2}}
	newPassState(nl, []*Segment{seg}).clump()
	if ov := nl.OverlapArea(); ov > 1e-9 {
		t.Fatalf("overlap after clumping: %v", ov)
	}
	// a and b straddle their desired mean: centers at 4.25+... the cluster
	// left edge minimizes Σ(x - desired)²: desired lefts 4, 4.5 -> mean
	// 4.25... cluster holds a then b: centers 5.25 and 7.25.
	if got := nl.Cells[1].Pos.X - nl.Cells[0].Pos.X; math.Abs(got-2) > 1e-9 {
		t.Errorf("a/b not abutted: gap %v", got)
	}
	if math.Abs(nl.Cells[2].Pos.X-20) > 1e-9 {
		t.Errorf("c moved to %v", nl.Cells[2].Pos.X)
	}
}

// TestLegalizeDecisionsPinned pins the outcome of the improvement passes
// on one circuit: a change to how moves are evaluated must not change
// which moves are made. The input is a global placement, so a change to
// the placer (its preconditioner, say) moves these figures too.
func TestLegalizeDecisionsPinned(t *testing.T) {
	nl := globalPlaced(t, 400, 77, 2)
	res, err := Legalize(nl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const (
		swaps = 1831
		hpwl  = 16934.334834313122
		disp  = 6032.1807549402738
	)
	if res.Swaps != swaps {
		t.Errorf("swaps = %d, want %d", res.Swaps, swaps)
	}
	if d := math.Abs(res.HPWLAfter-hpwl) / hpwl; d > 1e-12 {
		t.Errorf("HPWL after = %.17g, want %.17g", res.HPWLAfter, hpwl)
	}
	if d := math.Abs(res.Displacement-disp) / disp; d > 1e-12 {
		t.Errorf("displacement = %.17g, want %.17g", res.Displacement, disp)
	}
}

// BenchmarkLegalize legalizes a globally placed 2000-cell circuit.
func BenchmarkLegalize(b *testing.B) {
	nl := netgen.Generate(netgen.Config{Name: "bl", Cells: 2000, Nets: 2666, Rows: 16, Seed: 1})
	if _, err := place.Global(nl, place.Config{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := nl.Clone()
		b.StartTimer()
		if _, err := Legalize(c, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
