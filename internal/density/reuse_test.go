package density

import (
	"math"
	"testing"

	"repro/internal/netgen"
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
	// The cache keys on the padded dimensions only; a second grid of the
	// same geometry must not share state with the first (each grid owns its
	// fcache), and re-solving after a density change must track the change.
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
