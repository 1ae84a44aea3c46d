package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 1024} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -4, 3, 6, 1000} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024, 1024: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestForwardMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 32} {
		a := make([]complex128, n)
		for i := range a {
			a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := naiveDFT(a)
		got := append([]complex128(nil), a...)
		Forward(got)
		for i := range want {
			if cmplx.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("n=%d: FFT[%d] = %v, DFT = %v", n, i, got[i], want[i])
			}
		}
	}
}

func naiveDFT(a []complex128) []complex128 {
	n := len(a)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k*j) / float64(n)
			s += a[j] * cmplx.Exp(complex(0, ang))
		}
		out[k] = s
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := make([]complex128, 64)
	for i := range a {
		a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	got := append([]complex128(nil), a...)
	Forward(got)
	Inverse(got)
	for i := range a {
		if cmplx.Abs(got[i]-a[i]) > 1e-10 {
			t.Fatalf("roundtrip[%d] = %v, want %v", i, got[i], a[i])
		}
	}
}

func TestNonPow2Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Forward(make([]complex128, 6))
}

func TestPlanConvolveImpulse(t *testing.T) {
	// Convolving with a unit impulse at (0,0) is the identity.
	const w, h = 8, 8
	src := make([]float64, w*h)
	kernel := make([]float64, w*h)
	rng := rand.New(rand.NewSource(4))
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	kernel[0] = 1
	dst := make([]float64, w*h)
	NewPlan(w, h).Convolve(dst, src, kernel)
	for i := range src {
		if math.Abs(dst[i]-src[i]) > 1e-10 {
			t.Fatalf("impulse conv[%d] = %v, want %v", i, dst[i], src[i])
		}
	}
}

func TestPlanConvolveShift(t *testing.T) {
	// An impulse kernel at (1,0) cyclically shifts the source right by one.
	const w, h = 4, 4
	src := make([]float64, w*h)
	src[0*w+0] = 1
	src[2*w+3] = 2
	kernel := make([]float64, w*h)
	kernel[0*w+1] = 1
	dst := make([]float64, w*h)
	NewPlan(w, h).Convolve(dst, src, kernel)
	if math.Abs(dst[0*w+1]-1) > 1e-10 {
		t.Errorf("shifted value at (1,0) = %v", dst[0*w+1])
	}
	if math.Abs(dst[2*w+0]-2) > 1e-10 { // wraps around
		t.Errorf("wrapped value at (0,2) = %v", dst[2*w+0])
	}
}

func TestPlanConvolveMatchesNaive(t *testing.T) {
	const w, h = 8, 4
	rng := rand.New(rand.NewSource(5))
	src := make([]float64, w*h)
	kernel := make([]float64, w*h)
	for i := range src {
		src[i] = rng.NormFloat64()
		kernel[i] = rng.NormFloat64()
	}
	dst := make([]float64, w*h)
	NewPlan(w, h).Convolve(dst, src, kernel)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			want := 0.0
			for ky := 0; ky < h; ky++ {
				for kx := 0; kx < w; kx++ {
					sx := ((x-kx)%w + w) % w
					sy := ((y-ky)%h + h) % h
					want += src[sy*w+sx] * kernel[ky*w+kx]
				}
			}
			if math.Abs(dst[y*w+x]-want) > 1e-9 {
				t.Fatalf("conv(%d,%d) = %v, want %v", x, y, dst[y*w+x], want)
			}
		}
	}
}

func TestConvolveDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewPlan(4, 2).Convolve(make([]float64, 4), make([]float64, 8), make([]float64, 8))
}

func TestParsevalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := make([]complex128, 128)
	var timeEnergy float64
	for i := range a {
		a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		timeEnergy += real(a[i])*real(a[i]) + imag(a[i])*imag(a[i])
	}
	Forward(a)
	var freqEnergy float64
	for i := range a {
		freqEnergy += real(a[i])*real(a[i]) + imag(a[i])*imag(a[i])
	}
	freqEnergy /= float64(len(a))
	if math.Abs(timeEnergy-freqEnergy) > 1e-8*timeEnergy {
		t.Errorf("Parseval violated: %v vs %v", timeEnergy, freqEnergy)
	}
}
