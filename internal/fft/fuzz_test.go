package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// FuzzPlanRoundTrip checks Forward2D∘Inverse2D ≈ identity for every
// power-of-two plan up to 128×128, with the exponents fuzzed so the corpus
// hits the degenerate aspect ratios (1×64, 128×2, 1×1) that a hand-written
// table of "reasonable" sizes would skip. Amplitudes are fuzzed too: the
// tolerance scales with the input magnitude, so large inputs only get the
// relative accuracy the transform can deliver.
func FuzzPlanRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint8(6), int64(1), 1.0)   // 1×64 strip
	f.Add(uint8(7), uint8(1), int64(2), 1.0)   // 128×2 strip
	f.Add(uint8(0), uint8(0), int64(3), 1.0)   // 1×1 degenerate
	f.Add(uint8(3), uint8(3), int64(42), 1e6)  // square, large amplitudes
	f.Add(uint8(5), uint8(4), int64(9), 1e-12) // tiny amplitudes
	f.Fuzz(func(t *testing.T, wExp, hExp uint8, seed int64, amp float64) {
		w := 1 << (wExp % 8)
		h := 1 << (hExp % 8)
		if !(math.Abs(amp) > 0 && math.Abs(amp) < 1e100) {
			amp = 1
		}
		rng := rand.New(rand.NewSource(seed))
		data := make([]complex128, w*h)
		orig := make([]complex128, w*h)
		maxAbs := 0.0
		for i := range data {
			data[i] = complex(amp*(2*rng.Float64()-1), amp*(2*rng.Float64()-1))
			orig[i] = data[i]
			if a := cmplx.Abs(data[i]); a > maxAbs {
				maxAbs = a
			}
		}

		p := NewPlan(w, h)
		p.Forward2D(data)
		p.Inverse2D(data)

		// log2(wh) butterfly stages each contribute O(ε) relative error.
		tol := 1e-13 * float64(4+wExp%8+hExp%8) * (1 + maxAbs)
		for i := range data {
			if d := cmplx.Abs(data[i] - orig[i]); d > tol {
				t.Fatalf("plan %dx%d: element %d drifted %g (tol %g) after round trip",
					w, h, i, d, tol)
			}
		}
	})
}

// FuzzRealPlanRoundTrip checks IRFFT∘RFFT ≈ identity for every
// power-of-two real plan up to 128×128, and that the half-spectrum agrees
// with the complex plan's full spectrum on the retained columns — the
// Hermitian-symmetry contract everything downstream (cached kernel
// spectra, pointwise products) relies on.
func FuzzRealPlanRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint8(6), int64(1), 1.0)   // 1×64 strip
	f.Add(uint8(7), uint8(1), int64(2), 1.0)   // 128×2 strip
	f.Add(uint8(0), uint8(0), int64(3), 1.0)   // 1×1 degenerate
	f.Add(uint8(3), uint8(3), int64(42), 1e6)  // square, large amplitudes
	f.Add(uint8(5), uint8(4), int64(9), 1e-12) // tiny amplitudes
	f.Fuzz(func(t *testing.T, wExp, hExp uint8, seed int64, amp float64) {
		w := 1 << (wExp % 8)
		h := 1 << (hExp % 8)
		if !(math.Abs(amp) > 0 && math.Abs(amp) < 1e100) {
			amp = 1
		}
		rng := rand.New(rand.NewSource(seed))
		src := make([]float64, w*h)
		maxAbs := 0.0
		for i := range src {
			src[i] = amp * (2*rng.Float64() - 1)
			if a := math.Abs(src[i]); a > maxAbs {
				maxAbs = a
			}
		}

		rp := NewRealPlan(w, h)
		spec := make([]complex128, rp.SpecLen())
		rp.Spectrum(spec, src)

		tol := 1e-13 * float64(4+wExp%8+hExp%8) * float64(w*h) * (1 + maxAbs)

		// Half-spectrum must match the complex plan on retained columns.
		full := make([]complex128, w*h)
		NewPlan(w, h).Spectrum(full, src)
		hw := w/2 + 1
		for y := 0; y < h; y++ {
			for k := 0; k < hw; k++ {
				if d := cmplx.Abs(spec[y*hw+k] - full[y*w+k]); d > tol {
					t.Fatalf("real plan %dx%d: spectrum (%d,%d) off by %g (tol %g)",
						w, h, k, y, d, tol)
				}
			}
		}

		out := make([]float64, w*h)
		rp.Inverse(out, spec)
		for i := range src {
			if d := math.Abs(out[i] - src[i]); d > tol {
				t.Fatalf("real plan %dx%d: element %d drifted %g (tol %g) after round trip",
					w, h, i, d, tol)
			}
		}
	})
}

// FuzzSpectrumConvolve cross-checks RealPlan's cached-spectrum convolution
// against its direct Convolve path on the same plan: both evaluate the same
// cyclic convolution, so their outputs must agree to roundoff for any
// kernel. It also zero-pads the source past a seed-drawn row count and
// requires the row-pruned convolution to match the full one bit for bit
// on the rows it keeps.
func FuzzSpectrumConvolve(f *testing.F) {
	f.Add(uint8(2), uint8(3), int64(5))
	f.Add(uint8(0), uint8(5), int64(11))
	f.Add(uint8(5), uint8(4), int64(8)) // 32×16 plan, 9 kept rows: pruned pairs on both sides
	f.Fuzz(func(t *testing.T, wExp, hExp uint8, seed int64) {
		w := 1 << (wExp % 6)
		h := 1 << (hExp % 6)
		rng := rand.New(rand.NewSource(seed))
		src := make([]float64, w*h)
		kernel := make([]float64, w*h)
		for i := range src {
			src[i] = 2*rng.Float64() - 1
			kernel[i] = 2*rng.Float64() - 1
		}

		p := NewRealPlan(w, h)
		direct := make([]float64, w*h)
		p.Convolve(direct, src, kernel)

		spec := make([]complex128, p.SpecLen())
		p.Spectrum(spec, kernel)
		cached := make([]float64, w*h)
		p.ConvolveSpectra([][]float64{cached}, src, [][]complex128{spec})

		for i := range direct {
			if d := math.Abs(direct[i] - cached[i]); d > 1e-9 {
				t.Fatalf("real plan %dx%d: convolution paths disagree at %d by %g", w, h, i, d)
			}
		}

		rows := 1 + int(uint64(seed)%uint64(h))
		padded := append([]float64(nil), src[:rows*w]...)
		padded = append(padded, make([]float64, (h-rows)*w)...)
		full := make([]float64, w*h)
		p.ConvolveSpectra([][]float64{full}, padded, [][]complex128{spec})
		pruned := make([]float64, w*h)
		p.ConvolveSpectraRows([][]float64{pruned}, padded, [][]complex128{spec}, rows)
		for i := range pruned[:rows*w] {
			if math.Float64bits(pruned[i]) != math.Float64bits(full[i]) {
				t.Fatalf("real plan %dx%d, %d rows: pruned convolution differs at %d: %v vs %v", w, h, rows, i, pruned[i], full[i])
			}
		}
	})
}
