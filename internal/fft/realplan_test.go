package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func randomReal(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*rng.Float64() - 1
	}
	return v
}

// halfOf extracts the non-redundant (W/2+1)-column half of a full W×H
// complex spectrum, the layout RealPlan stores.
func halfOf(full []complex128, w, h int) []complex128 {
	hw := w/2 + 1
	half := make([]complex128, hw*h)
	for y := 0; y < h; y++ {
		copy(half[y*hw:(y+1)*hw], full[y*w:y*w+hw])
	}
	return half
}

var realPlanSizes = [][2]int{
	{1, 1}, {2, 1}, {1, 2}, {2, 2}, {4, 2}, {2, 8}, {8, 8},
	{16, 4}, {1, 16}, {64, 1}, {32, 16}, {64, 64},
}

// TestRealSpectrumMatchesComplex pins the half-spectrum against the
// complex plan's full spectrum of the same real input, within 1e-12.
func TestRealSpectrumMatchesComplex(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, sz := range realPlanSizes {
		w, h := sz[0], sz[1]
		src := randomReal(rng, w*h)

		full := make([]complex128, w*h)
		NewPlan(w, h).Spectrum(full, src)
		want := halfOf(full, w, h)

		rp := NewRealPlan(w, h)
		got := make([]complex128, rp.SpecLen())
		rp.Spectrum(got, src)

		for i := range want {
			if d := cmplx.Abs(got[i] - want[i]); d > 1e-12*float64(1+w*h) {
				t.Fatalf("%dx%d: spectrum entry %d off by %g", w, h, i, d)
			}
		}
	}
}

// TestRealInverseRoundTrip pins IRFFT(RFFT(x)) == x within 1e-12 and
// checks Inverse leaves the spectrum untouched.
func TestRealInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for _, sz := range realPlanSizes {
		w, h := sz[0], sz[1]
		src := randomReal(rng, w*h)

		rp := NewRealPlan(w, h)
		spec := make([]complex128, rp.SpecLen())
		rp.Spectrum(spec, src)
		snap := append([]complex128(nil), spec...)

		out := make([]float64, w*h)
		rp.Inverse(out, spec)
		for i := range src {
			if d := math.Abs(out[i] - src[i]); d > 1e-12*float64(1+w*h) {
				t.Fatalf("%dx%d: round trip drifted %g at %d", w, h, d, i)
			}
		}
		for i := range spec {
			if spec[i] != snap[i] {
				t.Fatalf("%dx%d: Inverse mutated the input spectrum at %d", w, h, i)
			}
		}
	}
}

// TestRealConvolveSpectraMatchesComplex pins the half-spectrum convolution
// pipeline against the complex plan's: same src, same two kernels, both
// answers within 1e-12. This is the exact substitution the density field
// solver makes.
func TestRealConvolveSpectraMatchesComplex(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, sz := range realPlanSizes {
		w, h := sz[0], sz[1]
		src := randomReal(rng, w*h)
		k1 := randomReal(rng, w*h)
		k2 := randomReal(rng, w*h)

		cp := NewPlan(w, h)
		fullSpecs := [][]complex128{make([]complex128, w*h), make([]complex128, w*h)}
		cp.Spectrum(fullSpecs[0], k1)
		cp.Spectrum(fullSpecs[1], k2)
		want := [][]float64{make([]float64, w*h), make([]float64, w*h)}
		cp.ConvolveSpectra(want, src, fullSpecs)

		rp := NewRealPlan(w, h)
		halfSpecs := [][]complex128{make([]complex128, rp.SpecLen()), make([]complex128, rp.SpecLen())}
		rp.Spectrum(halfSpecs[0], k1)
		rp.Spectrum(halfSpecs[1], k2)
		got := [][]float64{make([]float64, w*h), make([]float64, w*h)}
		rp.ConvolveSpectra(got, src, halfSpecs)

		for s := range want {
			for i := range want[s] {
				if d := math.Abs(got[s][i] - want[s][i]); d > 1e-12*float64(1+w*h) {
					t.Fatalf("%dx%d: kernel %d entry %d off by %g", w, h, s, i, d)
				}
			}
		}
	}
}

// TestRealConvolveMatchesComplex pins the one-shot Convolve paths against
// each other.
func TestRealConvolveMatchesComplex(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for _, sz := range realPlanSizes {
		w, h := sz[0], sz[1]
		src := randomReal(rng, w*h)
		kernel := randomReal(rng, w*h)

		want := make([]float64, w*h)
		NewPlan(w, h).Convolve(want, src, kernel)
		got := make([]float64, w*h)
		NewRealPlan(w, h).Convolve(got, src, kernel)

		for i := range want {
			if d := math.Abs(got[i] - want[i]); d > 1e-12*float64(1+w*h) {
				t.Fatalf("%dx%d: Convolve paths disagree at %d by %g", w, h, i, d)
			}
		}
	}
}

// TestRealPlanColumnSweepIsBitIdentical pins the row-sweep column pass
// to the per-column kernel it replaces: each retained column gathered,
// run through radix2.transform and scattered back must give the same
// spectrum bit for bit, forward and inverse, at every column length. A
// plan reused across transforms must give the same bits as a fresh one.
func TestRealPlanColumnSweepIsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for _, h := range []int{2, 4, 16, 32} {
		const w = 64
		p := NewRealPlan(w, h)
		for _, inverse := range []bool{false, true} {
			spec := make([]complex128, p.SpecLen())
			for i := range spec {
				spec[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			want := append([]complex128(nil), spec...)
			col := make([]complex128, h)
			for x := 0; x < p.hw; x++ {
				for y := range col {
					col[y] = want[y*p.hw+x]
				}
				p.col.transform(col, inverse)
				for y, v := range col {
					want[y*p.hw+x] = v
				}
			}
			p.transformCols(spec, inverse)
			for i := range want {
				if !sameComplexBits(spec[i], want[i]) {
					t.Fatalf("%dx%d inverse=%v: entry %d = %v, per-column kernel %v", w, h, inverse, i, spec[i], want[i])
				}
			}
		}
	}

	const w, h = 64, 32
	src := randomReal(rng, w*h)
	runOn := func(rp *RealPlan) ([]complex128, []float64) {
		spec := make([]complex128, rp.SpecLen())
		rp.Spectrum(spec, src)
		out := make([]float64, w*h)
		rp.Inverse(out, spec)
		return spec, out
	}
	shared := NewRealPlan(w, h)
	runOn(shared)
	wantSpec, wantOut := runOn(NewRealPlan(w, h))
	gotSpec, gotOut := runOn(shared)
	for i := range wantSpec {
		if !sameComplexBits(gotSpec[i], wantSpec[i]) {
			t.Fatalf("reused plan: spectrum entry %d differs from a fresh plan's", i)
		}
	}
	for i := range wantOut {
		if math.Float64bits(gotOut[i]) != math.Float64bits(wantOut[i]) {
			t.Fatalf("reused plan: inverse entry %d differs from a fresh plan's", i)
		}
	}
}

// sameComplexBits compares two complex values by the bits of both parts.
func sameComplexBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// TestConvolveSpectraNoLineAllocs: the row passes pack through the plan's
// own line buffer, the column pass works in place and no pass fans out,
// so a warmed ConvolveSpectra allocates nothing.
func TestConvolveSpectraNoLineAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for _, sz := range [][2]int{{32, 16}, {64, 1}} {
		w, h := sz[0], sz[1]
		p := NewRealPlan(w, h)
		spec1 := make([]complex128, p.SpecLen())
		spec2 := make([]complex128, p.SpecLen())
		p.Spectrum(spec1, randomReal(rng, w*h))
		p.Spectrum(spec2, randomReal(rng, w*h))
		src := randomReal(rng, w*h)
		dsts := [][]float64{make([]float64, w*h), make([]float64, w*h)}
		specs := [][]complex128{spec1, spec2}
		p.ConvolveSpectra(dsts, src, specs)
		allocs := testing.AllocsPerRun(10, func() { p.ConvolveSpectra(dsts, src, specs) })
		if allocs != 0 {
			t.Errorf("%dx%d: warmed ConvolveSpectra allocates %.1f objects, want 0", w, h, allocs)
		}
	}
}

// TestConvolveSpectraRowsBitIdentical: on a source zero past row r, the
// row-pruned convolution writes rows [0, r) bit-identical to the full
// ConvolveSpectra, for every r.
// The skipped forward pairs are written as the transform of two +0 rows
// would leave them, which the full path checks here too.
func TestConvolveSpectraRowsBitIdentical(t *testing.T) {
	const w, h = 32, 16
	rng := rand.New(rand.NewSource(57))
	p := NewRealPlan(w, h)
	specs := [][]complex128{make([]complex128, p.SpecLen()), make([]complex128, p.SpecLen())}
	p.Spectrum(specs[0], randomReal(rng, w*h))
	p.Spectrum(specs[1], randomReal(rng, w*h))

	zeroSpec := make([]complex128, p.SpecLen())
	pruned := make([]complex128, p.SpecLen())
	p.forwardRows(pruned, make([]float64, w*h), 1)
	p.forwardRows(zeroSpec, make([]float64, w*h), h)
	for i := range zeroSpec {
		if !sameComplexBits(pruned[i], zeroSpec[i]) {
			t.Fatalf("skipped zero rows: spectrum entry %d = %v, the transform gives %v", i, pruned[i], zeroSpec[i])
		}
	}

	for rows := 1; rows <= h; rows++ {
		src := randomReal(rng, w*h)
		clear(src[rows*w:])
		full := [][]float64{make([]float64, w*h), make([]float64, w*h)}
		p.ConvolveSpectra(full, src, specs)
		got := [][]float64{make([]float64, w*h), make([]float64, w*h)}
		p.ConvolveSpectraRows(got, src, specs, rows)
		for s := range got {
			for i := range got[s][:rows*w] {
				if math.Float64bits(got[s][i]) != math.Float64bits(full[s][i]) {
					t.Fatalf("%d rows: kernel %d entry %d = %v, full path %v", rows, s, i, got[s][i], full[s][i])
				}
			}
		}
	}
}
