package density

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/netgen"
	"repro/internal/netlist"
)

func gridded(t *testing.T, nCells int, nx, ny int, seed int64) (*netlist.Netlist, *Grid) {
	t.Helper()
	nl := netgen.Generate(netgen.Config{Name: "d", Cells: nCells, Nets: nCells + nCells/4, Rows: 8, Seed: seed})
	netgen.ScatterRandom(nl, seed)
	g := NewGrid(nl.Region.Outline, nx, ny)
	g.Accumulate(nl)
	return nl, g
}

func TestDemandConservation(t *testing.T) {
	nl, g := gridded(t, 300, 16, 16, 1)
	var total float64
	for _, d := range g.Demand {
		total += d
	}
	if want := nl.MovableArea(); math.Abs(total-want) > 1e-6*want {
		t.Errorf("total demand = %v, movable area = %v", total, want)
	}
}

func TestTotalDIsZero(t *testing.T) {
	nl, g := gridded(t, 300, 16, 16, 2)
	if d := g.TotalD(); math.Abs(d) > 1e-6*nl.MovableArea() {
		t.Errorf("∫D = %v, want 0", d)
	}
}

func TestDemandConservedForOffRegionCells(t *testing.T) {
	// A cell hanging outside the region must still deposit its full area.
	region := geom.NewRect(0, 0, 10, 10)
	g := NewGrid(region, 8, 8)
	g.AddArea(geom.RectCenteredAt(geom.Point{X: -5, Y: 5}, 2, 2), 1)
	var total float64
	for _, d := range g.Demand {
		total += d
	}
	if math.Abs(total-4) > 1e-9 {
		t.Errorf("off-region demand = %v, want 4", total)
	}
}

func TestUniformPlacementHasLowOverflow(t *testing.T) {
	// Cells spread perfectly evenly: overflow should be small.
	region := geom.NewRect(0, 0, 16, 16)
	nl := &netlist.Netlist{Region: geom.Region{Outline: region}}
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			nl.Cells = append(nl.Cells, netlist.Cell{
				W: 0.8, H: 0.8,
				Pos: geom.Point{X: float64(x) + 0.5, Y: float64(y) + 0.5},
			})
		}
	}
	g := NewGrid(region, 16, 16)
	g.Accumulate(nl)
	if ov := g.Overflow(); ov > 0.05 {
		t.Errorf("uniform overflow = %v", ov)
	}
}

func TestClusteredPlacementHasHighOverflow(t *testing.T) {
	region := geom.NewRect(0, 0, 16, 16)
	nl := &netlist.Netlist{Region: geom.Region{Outline: region}}
	for i := 0; i < 64; i++ {
		nl.Cells = append(nl.Cells, netlist.Cell{
			W: 1, H: 1, Pos: geom.Point{X: 8, Y: 8},
		})
	}
	g := NewGrid(region, 16, 16)
	g.Accumulate(nl)
	if ov := g.Overflow(); ov < 0.5 {
		t.Errorf("clustered overflow = %v, want high", ov)
	}
}

func TestFieldRepelsFromCluster(t *testing.T) {
	// All demand at the center: field must point away from the center.
	region := geom.NewRect(0, 0, 16, 16)
	g := NewGrid(region, 16, 16)
	g.Demand[g.Idx(8, 8)] = 64
	g.finish()
	f := ComputeField(g, Direct)
	probe := []geom.Point{{X: 2, Y: 8.25}, {X: 14, Y: 8.25}, {X: 8.25, Y: 2}, {X: 8.25, Y: 14}}
	center := g.BinCenter(8, 8)
	for _, p := range probe {
		v := f.At(p)
		away := p.Sub(center)
		if dot := v.X*away.X + v.Y*away.Y; dot <= 0 {
			t.Errorf("field at %v = %v does not repel from center", p, v)
		}
	}
}

func TestFieldAttractsTowardVoid(t *testing.T) {
	// Demand uniformly except a hole on the right: field near the hole
	// points into it.
	region := geom.NewRect(0, 0, 16, 16)
	g := NewGrid(region, 16, 16)
	for iy := 0; iy < 16; iy++ {
		for ix := 0; ix < 16; ix++ {
			if ix < 12 {
				g.Demand[g.Idx(ix, iy)] = 1
			}
		}
	}
	g.finish()
	f := ComputeField(g, Direct)
	v := f.At(geom.Point{X: 11, Y: 8})
	if v.X <= 0 {
		t.Errorf("field near void = %v, want +X pull", v)
	}
}

func TestFFTMatchesDirect(t *testing.T) {
	_, g := gridded(t, 400, 32, 32, 3)
	fd := ComputeField(g, Direct)
	ff := ComputeField(g, RealFFT)
	scale := fd.MaxMagnitude()
	if scale == 0 {
		t.Fatal("zero field")
	}
	for i := range fd.FX {
		if math.Abs(fd.FX[i]-ff.FX[i]) > 1e-6*scale || math.Abs(fd.FY[i]-ff.FY[i]) > 1e-6*scale {
			t.Fatalf("bin %d: direct (%g,%g) vs rfft (%g,%g)",
				i, fd.FX[i], fd.FY[i], ff.FX[i], ff.FY[i])
		}
	}
}

// TestMethodStringAndParse: the method tags the field metrics label by.
// Methods are not parsed from text: the grid alone picks one (Auto).
func TestMethodStringAndParse(t *testing.T) {
	for _, tc := range []struct {
		m   Method
		tag string
	}{{Auto, "auto"}, {Direct, "direct"}, {RealFFT, "rfft"}} {
		if tc.m.String() != tc.tag {
			t.Errorf("%d.String() = %q, want %q", tc.m, tc.m.String(), tc.tag)
		}
	}
}

func TestAutoSelectsByGridSize(t *testing.T) {
	// Auto's rule is NX·NY ≥ 2048 on power-of-two grids: 32×32 stays
	// Direct, 64×32 is the smallest RealFFT grid. Bitwise equality with
	// the explicit method proves the dispatch.
	for _, tc := range []struct {
		nx, ny int
		want   Method
	}{{16, 16, Direct}, {32, 32, Direct}, {64, 32, RealFFT}, {64, 64, RealFFT}} {
		_, g := gridded(t, 100, tc.nx, tc.ny, 4)
		fa := ComputeField(g, Auto)
		fw := ComputeField(g, tc.want)
		for i := range fa.FX {
			if fa.FX[i] != fw.FX[i] || fa.FY[i] != fw.FY[i] {
				t.Fatalf("Auto on %d×%d did not match %v", tc.nx, tc.ny, tc.want)
			}
		}
	}
}

func TestFieldIsNearlyCurlFree(t *testing.T) {
	_, g := gridded(t, 500, 32, 32, 5)
	f := ComputeField(g, Direct)
	if c := f.Curl(); c > 0.2 {
		t.Errorf("relative curl = %v, want small (requirement 3)", c)
	}
}

func TestFieldAtInterpolates(t *testing.T) {
	region := geom.NewRect(0, 0, 4, 4)
	g := NewGrid(region, 4, 4)
	f := &Field{grid: g, FX: make([]float64, 16), FY: make([]float64, 16)}
	f.FX[g.Idx(1, 1)] = 1
	f.FX[g.Idx(2, 1)] = 3
	// Halfway between bin centers (1.5,1.5) and (2.5,1.5).
	v := f.At(geom.Point{X: 2.0, Y: 1.5})
	if math.Abs(v.X-2) > 1e-9 {
		t.Errorf("interp = %v, want 2", v.X)
	}
	// Clamping outside the region.
	_ = f.At(geom.Point{X: -100, Y: 100})
}

func TestMaxMagnitude(t *testing.T) {
	region := geom.NewRect(0, 0, 4, 4)
	g := NewGrid(region, 4, 4)
	f := &Field{grid: g, FX: make([]float64, 16), FY: make([]float64, 16)}
	f.FX[5] = 3
	f.FY[5] = 4
	if m := f.MaxMagnitude(); math.Abs(m-5) > 1e-12 {
		t.Errorf("MaxMagnitude = %v", m)
	}
}

func TestLargestEmptySquare(t *testing.T) {
	region := geom.NewRect(0, 0, 8, 8)
	g := NewGrid(region, 8, 8)
	// Fill everything except a 3x3 empty block.
	for iy := 0; iy < 8; iy++ {
		for ix := 0; ix < 8; ix++ {
			if ix >= 2 && ix < 5 && iy >= 3 && iy < 6 {
				continue
			}
			g.Demand[g.Idx(ix, iy)] = 1
		}
	}
	g.finish()
	got := g.LargestEmptySquare(0.25)
	if math.Abs(got-9) > 1e-9 { // 3x3 bins of 1x1
		t.Errorf("LargestEmptySquare = %v, want 9", got)
	}
}

func TestLargestEmptySquareFullyOccupied(t *testing.T) {
	region := geom.NewRect(0, 0, 4, 4)
	g := NewGrid(region, 4, 4)
	for i := range g.Demand {
		g.Demand[i] = 1
	}
	g.finish()
	if got := g.LargestEmptySquare(0.25); got != 0 {
		t.Errorf("occupied grid empty square = %v", got)
	}
}

func TestSetExtraShiftsDensity(t *testing.T) {
	nl, g := gridded(t, 200, 16, 16, 6)
	base := append([]float64(nil), g.D...)
	extra := make([]float64, 256)
	extra[g.Idx(3, 3)] = 10
	g.SetExtra(extra)
	g.Accumulate(nl)
	if g.D[g.Idx(3, 3)] <= base[g.Idx(3, 3)] {
		t.Error("extra demand did not raise density")
	}
	if d := g.TotalD(); math.Abs(d) > 1e-6*nl.MovableArea() {
		t.Errorf("∫D with extra = %v, want 0", d)
	}
	g.SetExtra(nil)
	g.Accumulate(nl)
	for i := range g.D {
		if math.Abs(g.D[i]-base[i]) > 1e-9 {
			t.Fatal("clearing extra did not restore density")
		}
	}
}

func TestSetExtraDimensionPanic(t *testing.T) {
	_, g := gridded(t, 50, 8, 8, 7)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	g.SetExtra(make([]float64, 3))
}

func TestNewGridRejectsBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewGrid(geom.Rect{}, 4, 4)
}

func TestBinGeometry(t *testing.T) {
	g := NewGrid(geom.NewRect(0, 0, 8, 4), 4, 2)
	if g.BinW != 2 || g.BinH != 2 {
		t.Errorf("bin size %vx%v", g.BinW, g.BinH)
	}
	if c := g.BinCenter(0, 0); c != (geom.Point{X: 1, Y: 1}) {
		t.Errorf("BinCenter(0,0) = %v", c)
	}
	if r := g.BinRect(3, 1); r != geom.NewRect(6, 2, 8, 4) {
		t.Errorf("BinRect(3,1) = %v", r)
	}
}
