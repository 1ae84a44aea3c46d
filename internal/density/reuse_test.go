package density

import (
	"math"
	"testing"

	"repro/internal/netgen"
	"repro/internal/netlist"
	"repro/internal/par"
)

func TestAccumulateParallelIsBitIdentical(t *testing.T) {
	nl := netgen.Generate(netgen.Config{Name: "p", Cells: 500, Nets: 600, Rows: 8, Seed: 41})
	netgen.ScatterRandom(nl, 41)

	serial := NewGrid(nl.Region.Outline, 32, 16)
	serial.Accumulate(nl)

	parallel := NewGrid(nl.Region.Outline, 32, 16)
	old := par.Threshold
	par.Threshold = 1
	defer func() { par.Threshold = old }()
	parallel.Accumulate(nl)

	for i := range serial.Demand {
		if serial.Demand[i] != parallel.Demand[i] {
			t.Fatalf("parallel demand differs at bin %d: %g vs %g",
				i, parallel.Demand[i], serial.Demand[i])
		}
		if serial.D[i] != parallel.D[i] {
			t.Fatalf("parallel D differs at bin %d: %g vs %g",
				i, parallel.D[i], serial.D[i])
		}
	}

	// Repeated accumulation reuses the shard buffers; results must not drift.
	parallel.Accumulate(nl)
	for i := range serial.Demand {
		if serial.Demand[i] != parallel.Demand[i] {
			t.Fatalf("re-accumulated demand differs at bin %d", i)
		}
	}
}

// TestRealFFTCachedMatchesColdBitwise: solves that reuse a grid's cached
// plan, kernel spectra and scratch must equal a cold solve (a freshly built
// grid's first) bit for bit, so the cache carries no state between solves.
func TestRealFFTCachedMatchesColdBitwise(t *testing.T) {
	nl := netgen.Generate(netgen.Config{Name: "rc", Cells: 400, Nets: 500, Rows: 8, Seed: 45})
	netgen.ScatterRandom(nl, 45)

	hot := NewGrid(nl.Region.Outline, 64, 64)
	hot.Accumulate(nl)

	// Two rounds so the second cached solve reuses plan, spectra, scratch.
	for round := 0; round < 2; round++ {
		cold := NewGrid(nl.Region.Outline, 64, 64)
		cold.Accumulate(nl)
		fh := ComputeField(hot, RealFFT)
		fc := ComputeField(cold, RealFFT)
		for i := range fh.FX {
			if math.Float64bits(fh.FX[i]) != math.Float64bits(fc.FX[i]) ||
				math.Float64bits(fh.FY[i]) != math.Float64bits(fc.FY[i]) {
				t.Fatalf("round %d: cached and cold real-FFT fields differ at bin %d", round, i)
			}
		}
	}
}

// TestCachedFieldMatchesCold: after the density changes, a solve through a
// grid's warm cache must equal a fresh grid's first solve on the new density
// bit for bit.
func TestCachedFieldMatchesCold(t *testing.T) {
	nl := netgen.Generate(netgen.Config{Name: "c", Cells: 400, Nets: 500, Rows: 8, Seed: 42})
	netgen.ScatterRandom(nl, 42)

	hot := NewGrid(nl.Region.Outline, 64, 32)
	hot.Accumulate(nl)
	ComputeField(hot, RealFFT) // builds the cache on the first density

	netgen.ScatterRandom(nl, 142)
	hot.Accumulate(nl)
	got := ComputeField(hot, RealFFT)

	fresh := NewGrid(nl.Region.Outline, 64, 32)
	fresh.Accumulate(nl)
	want := ComputeField(fresh, RealFFT)
	for i := range want.FX {
		if math.Float64bits(got.FX[i]) != math.Float64bits(want.FX[i]) ||
			math.Float64bits(got.FY[i]) != math.Float64bits(want.FY[i]) {
			t.Fatalf("cached field after a density change differs from a fresh grid's at bin %d", i)
		}
	}
}

func TestFieldCacheInvalidatedByNothing(t *testing.T) {
	// A second grid of the same geometry must not share mutable state with
	// the first (each grid owns its fcache and scratch; only the read-only
	// kernel spectra are shared), and re-solving after a density change
	// must track the change.
	nl := netgen.Generate(netgen.Config{Name: "i", Cells: 200, Nets: 260, Rows: 8, Seed: 43})
	netgen.ScatterRandom(nl, 43)
	g := NewGrid(nl.Region.Outline, 64, 64)
	g.Accumulate(nl)
	f1 := ComputeField(g, RealFFT)

	// Move everything and re-accumulate: the cached solver must see the new
	// density, not replay the old solve.
	for ci := range nl.Cells {
		if !nl.Cells[ci].Fixed {
			nl.Cells[ci].Pos.X = nl.Region.Outline.Lo.X + 1
		}
	}
	g.Accumulate(nl)
	f2 := ComputeField(g, RealFFT)

	var diff float64
	for i := range f1.FX {
		diff += math.Abs(f1.FX[i] - f2.FX[i])
	}
	if diff == 0 {
		t.Fatal("cached field solver returned a stale field after the density changed")
	}
}

// TestKernelSpectraShared: a grid of the same geometry as the last one
// reads the same kernel spectra, a grid of another geometry computes its
// own, and either way the field equals the one from spectra computed
// afresh, bit for bit.
func TestKernelSpectraShared(t *testing.T) {
	nl := netgen.Generate(netgen.Config{Name: "k", Cells: 300, Nets: 390, Rows: 8, Seed: 44})
	netgen.ScatterRandom(nl, 44)
	fresh := func(g *Grid) *Field {
		fc := g.fieldSolver()
		kx, ky := fieldKernels(g, fc.plan.W, fc.plan.H)
		for i, k := range [2][]float64{kx, ky} {
			fc.specs[i] = make([]complex128, fc.plan.SpecLen())
			fc.plan.Spectrum(fc.specs[i], k)
		}
		return ComputeField(g, RealFFT)
	}
	first := NewGrid(nl.Region.Outline, 64, 32)
	first.Accumulate(nl)
	ComputeField(first, RealFFT)
	for _, dims := range [][2]int{{64, 32}, {32, 64}, {32, 64}} {
		g := NewGrid(nl.Region.Outline, dims[0], dims[1])
		g.Accumulate(nl)
		shared := ComputeField(g, RealFFT)
		same := dims == [2]int{64, 32}
		if got := &g.fieldSolver().specs[0][0] == &first.fieldSolver().specs[0][0]; got != same {
			t.Errorf("%dx%d grid shares the 64x32 grid's spectra: %v, want %v", dims[0], dims[1], got, same)
		}
		want := fresh(gridLike(g, nl))
		for i := range want.FX {
			if math.Float64bits(shared.FX[i]) != math.Float64bits(want.FX[i]) ||
				math.Float64bits(shared.FY[i]) != math.Float64bits(want.FY[i]) {
				t.Fatalf("%dx%d: field at bin %d differs from fresh spectra's", dims[0], dims[1], i)
			}
		}
	}
}

// gridLike returns a fresh grid of g's geometry holding nl's density.
func gridLike(g *Grid, nl *netlist.Netlist) *Grid {
	h := NewGrid(g.Region, g.NX, g.NY)
	h.Accumulate(nl)
	return h
}
