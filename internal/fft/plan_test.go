package fft

import (
	"math/rand"
	"testing"
)

func randField(rng *rand.Rand, n int) []float64 {
	f := make([]float64, n)
	for i := range f {
		f[i] = rng.NormFloat64()
	}
	return f
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

func benchmarkGrids(n int) (src, kernel, dst []float64) {
	rng := rand.New(rand.NewSource(42))
	return randField(rng, n), randField(rng, n), make([]float64, n)
}

func BenchmarkRealPlanConvolve(b *testing.B) {
	const w, h = 128, 128
	src, kernel, dst := benchmarkGrids(w * h)
	p := NewRealPlan(w, h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Convolve(dst, src, kernel)
	}
}

func BenchmarkRealPlanConvolveSpectra(b *testing.B) {
	const w, h = 128, 128
	src, kernel, dst := benchmarkGrids(w * h)
	p := NewRealPlan(w, h)
	spec := make([]complex128, p.SpecLen())
	p.Spectrum(spec, kernel)
	dsts, specs := [][]float64{dst}, [][]complex128{spec}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ConvolveSpectra(dsts, src, specs)
	}
}
