// Package fft provides the radix-2 fast Fourier transforms used to evaluate
// the Green's-function convolution of the paper's equation (9) on a grid in
// O(B log B) instead of O(B²).
package fft

import "math/bits"

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// NextPow2 returns the smallest power of two >= n (and >= 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// Forward performs an in-place forward FFT of a. len(a) must be a power of
// two.
func Forward(a []complex128) { tableFor(len(a)).transform(a, false) }

// Inverse performs an in-place inverse FFT of a, including the 1/n scaling.
// len(a) must be a power of two.
func Inverse(a []complex128) {
	tableFor(len(a)).transform(a, true)
	scale := complex(1/float64(len(a)), 0)
	for i := range a {
		a[i] *= scale
	}
}
