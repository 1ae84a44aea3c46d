package fft

import (
	"math/rand"
	"testing"

	"repro/internal/par"
)

func randField(rng *rand.Rand, n int) []float64 {
	f := make([]float64, n)
	for i := range f {
		f[i] = rng.NormFloat64()
	}
	return f
}

// withThreshold runs f with the parallel cutover lowered so small test grids
// exercise the multi-goroutine paths.
func withThreshold(t *testing.T, n int, f func()) {
	t.Helper()
	old := par.Threshold
	par.Threshold = n
	defer func() { par.Threshold = old }()
	f()
}

func TestPlanTransformMatchesSerialForward(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dim := range [][2]int{{8, 8}, {16, 4}, {4, 32}} {
		w, h := dim[0], dim[1]
		data := make([]complex128, w*h)
		for i := range data {
			data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		serial := append([]complex128(nil), data...)
		NewPlan(w, h).Forward2D(serial)

		parallel := append([]complex128(nil), data...)
		withThreshold(t, 1, func() {
			NewPlan(w, h).Forward2D(parallel)
		})
		for i := range serial {
			if serial[i] != parallel[i] {
				t.Fatalf("%dx%d: parallel Forward2D differs at %d: %v vs %v",
					w, h, i, parallel[i], serial[i])
			}
		}
	}
}

func TestPlanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	w, h := 16, 8
	data := make([]complex128, w*h)
	for i := range data {
		data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	orig := append([]complex128(nil), data...)
	p := NewPlan(w, h)
	p.Forward2D(data)
	p.Inverse2D(data)
	for i := range data {
		if d := data[i] - orig[i]; real(d)*real(d)+imag(d)*imag(d) > 1e-18 {
			t.Fatalf("round trip diverged at %d: %v vs %v", i, data[i], orig[i])
		}
	}
}

func TestConvolveSpectraMatchesConvolve(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	w, h := 16, 8
	n := w * h
	src := randField(rng, n)
	k1 := randField(rng, n)
	k2 := randField(rng, n)

	p := NewPlan(w, h)
	want1 := make([]float64, n)
	want2 := make([]float64, n)
	p.Convolve(want1, src, k1)
	p.Convolve(want2, src, k2)

	spec1 := make([]complex128, n)
	spec2 := make([]complex128, n)
	p.Spectrum(spec1, k1)
	p.Spectrum(spec2, k2)
	got1 := make([]float64, n)
	got2 := make([]float64, n)
	p.ConvolveSpectra([][]float64{got1, got2}, src, [][]complex128{spec1, spec2})

	for i := 0; i < n; i++ {
		if d := got1[i] - want1[i]; d > 1e-12 || d < -1e-12 {
			t.Fatalf("spectra path k1 differs at %d: %g vs %g", i, got1[i], want1[i])
		}
		if d := got2[i] - want2[i]; d > 1e-12 || d < -1e-12 {
			t.Fatalf("spectra path k2 differs at %d: %g vs %g", i, got2[i], want2[i])
		}
	}
}

func TestPlanConvolveParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	w, h := 32, 16
	src := randField(rng, w*h)
	kernel := randField(rng, w*h)

	serial := make([]float64, w*h)
	NewPlan(w, h).Convolve(serial, src, kernel)

	parallel := make([]float64, w*h)
	withThreshold(t, 1, func() {
		NewPlan(w, h).Convolve(parallel, src, kernel)
	})
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("parallel Plan.Convolve differs at %d: %g vs %g", i, parallel[i], serial[i])
		}
	}
}

func TestPlanDimensionPanics(t *testing.T) {
	assertPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	assertPanic("NewPlan", func() { NewPlan(6, 8) })
	p := NewPlan(8, 8)
	assertPanic("Forward2D", func() { p.Forward2D(make([]complex128, 7)) })
	assertPanic("Spectrum", func() { p.Spectrum(make([]complex128, 64), make([]float64, 10)) })
	assertPanic("Convolve", func() { p.Convolve(make([]float64, 64), make([]float64, 64), nil) })
	assertPanic("ConvolveSpectra", func() {
		p.ConvolveSpectra([][]float64{make([]float64, 64)}, make([]float64, 64),
			[][]complex128{make([]complex128, 3)})
	})
}

func benchmarkGrids(n int) (src, kernel, dst []float64) {
	rng := rand.New(rand.NewSource(42))
	return randField(rng, n), randField(rng, n), make([]float64, n)
}

func BenchmarkPlanConvolve(b *testing.B) {
	const w, h = 128, 128
	src, kernel, dst := benchmarkGrids(w * h)
	p := NewPlan(w, h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Convolve(dst, src, kernel)
	}
}

func BenchmarkPlanConvolveSpectra(b *testing.B) {
	const w, h = 128, 128
	src, kernel, dst := benchmarkGrids(w * h)
	p := NewPlan(w, h)
	spec := make([]complex128, w*h)
	p.Spectrum(spec, kernel)
	dsts, specs := [][]float64{dst}, [][]complex128{spec}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ConvolveSpectra(dsts, src, specs)
	}
}
