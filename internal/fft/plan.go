package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"

	"repro/internal/par"
)

// radix2 holds the precomputed tables for one transform length: the
// bit-reversal permutation and the per-stage twiddle factors (forward and
// inverse). Tables are immutable after construction and shared between all
// plans of the same length through tableFor.
type radix2 struct {
	n   int
	rev []int32
	// Twiddles packed stage by stage: the stage with half-size h occupies
	// [h-1 : 2h-1], so the whole table is n-1 entries per direction.
	twF []complex128
	twI []complex128
}

var tableCache sync.Map // int -> *radix2

func tableFor(n int) *radix2 {
	if t, ok := tableCache.Load(n); ok {
		return t.(*radix2)
	}
	t, _ := tableCache.LoadOrStore(n, newRadix2(n))
	return t.(*radix2)
}

func newRadix2(n int) *radix2 {
	if !IsPow2(n) {
		panic(fmt.Sprintf("fft: length %d is not a power of two", n))
	}
	t := &radix2{n: n, rev: make([]int32, n)}
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 1; i < n; i++ {
		t.rev[i] = int32(bits.Reverse64(uint64(i)) >> shift)
	}
	if n >= 2 {
		t.twF = make([]complex128, n-1)
		t.twI = make([]complex128, n-1)
		for size := 2; size <= n; size <<= 1 {
			half := size / 2
			for k := 0; k < half; k++ {
				w := cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(size)))
				t.twF[half-1+k] = w
				t.twI[half-1+k] = cmplx.Conj(w)
			}
		}
	}
	return t
}

// transform runs the in-place Cooley-Tukey butterflies on a (len n) using
// the precomputed tables. No scaling is applied in either direction.
func (t *radix2) transform(a []complex128, inverse bool) {
	if len(a) != t.n {
		panic(fmt.Sprintf("fft: length %d does not match table %d", len(a), t.n))
	}
	for i, jj := range t.rev {
		if j := int(jj); i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	tw := t.twF
	if inverse {
		tw = t.twI
	}
	n := t.n
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		ws := tw[half-1 : size-1]
		for start := 0; start < n; start += size {
			lo, hi := a[start:start+half], a[start+half:start+size]
			for k := range lo {
				u := lo[k]
				v := hi[k] * ws[k]
				lo[k] = u + v
				hi[k] = u - v
			}
		}
	}
}

// Plan caches everything a W×H 2-D transform pipeline needs between calls:
// the per-axis twiddle and bit-reversal tables and two owned scratch grids
// for convolution, so the hot loop neither allocates nor recomputes
// twiddles. Row and column passes fan out across GOMAXPROCS goroutines once
// the grid reaches par.Threshold elements; the result is identical to the
// serial pass (each row/column is transformed by exactly one goroutine with
// the same sequential kernel).
//
// A Plan's scratch is not safe for concurrent use; share tables, not plans.
type Plan struct {
	W, H int
	row  *radix2
	col  *radix2
	a, b []complex128 // lazily allocated W·H convolution scratch
}

// NewPlan prepares a plan for W×H grids (both powers of two). Table
// construction is amortized globally, so NewPlan is cheap for sizes seen
// before; the scratch grids are allocated on first convolution.
func NewPlan(w, h int) *Plan {
	if !IsPow2(w) || !IsPow2(h) {
		panic(fmt.Sprintf("fft: plan %dx%d not power-of-two", w, h))
	}
	return &Plan{W: w, H: h, row: tableFor(w), col: tableFor(h)}
}

// Forward2D performs the in-place forward 2-D FFT of data (row-major W×H).
func (p *Plan) Forward2D(data []complex128) { p.transform2D(data, false) }

// Inverse2D performs the in-place inverse 2-D FFT of data, including the
// 1/(W·H) scaling.
func (p *Plan) Inverse2D(data []complex128) {
	p.transform2D(data, true)
	scale := complex(1/float64(p.W*p.H), 0)
	for i := range data {
		data[i] *= scale
	}
}

func (p *Plan) transform2D(data []complex128, inverse bool) {
	w, h := p.W, p.H
	if len(data) != w*h {
		panic("fft: transform2D dimension mismatch")
	}
	workers := par.Workers(w * h)
	// Rows.
	par.Run(workers, h, func(_, lo, hi int) {
		for y := lo; y < hi; y++ {
			p.row.transform(data[y*w:(y+1)*w], inverse)
		}
	})
	// Columns, gathered through a per-worker scratch vector.
	par.Run(workers, w, func(_, lo, hi int) {
		col := make([]complex128, h)
		for x := lo; x < hi; x++ {
			for y := 0; y < h; y++ {
				col[y] = data[y*w+x]
			}
			p.col.transform(col, inverse)
			for y := 0; y < h; y++ {
				data[y*w+x] = col[y]
			}
		}
	})
}

// scratch returns the plan's two owned W·H complex grids.
func (p *Plan) scratch() (a, b []complex128) {
	if p.a == nil {
		p.a = make([]complex128, p.W*p.H)
		p.b = make([]complex128, p.W*p.H)
	}
	return p.a, p.b
}

// Spectrum computes the forward 2-D transform of the real field src into
// dst (both length W·H). Callers convolving many sources against the same
// kernel compute the kernel's spectrum once and pass it to ConvolveSpectra.
func (p *Plan) Spectrum(dst []complex128, src []float64) {
	if len(dst) != p.W*p.H || len(src) != p.W*p.H {
		panic("fft: Spectrum dimension mismatch")
	}
	for i := range src {
		dst[i] = complex(src[i], 0)
	}
	p.Forward2D(dst)
}

// Convolve computes the cyclic 2-D convolution of src with kernel into dst
// (all length W·H), transforming both inputs. Prefer ConvolveSpectra with a
// cached kernel spectrum on iterative paths.
func (p *Plan) Convolve(dst, src, kernel []float64) {
	n := p.W * p.H
	if len(dst) != n || len(src) != n || len(kernel) != n {
		panic("fft: Convolve dimension mismatch")
	}
	a, b := p.scratch()
	for i := range src {
		a[i] = complex(src[i], 0)
		b[i] = complex(kernel[i], 0)
	}
	p.Forward2D(a)
	p.Forward2D(b)
	for i := range a {
		a[i] *= b[i]
	}
	p.Inverse2D(a)
	for i := range dst {
		dst[i] = real(a[i])
	}
}

// ConvolveSpectra transforms src once and convolves it against each cached
// kernel spectrum: dsts[i] receives the real part of IFFT(FFT(src)·specs[i]).
// It costs one forward plus one inverse transform per kernel instead of two
// forwards and one inverse, and is the full-spectrum reference that
// RealPlan.ConvolveSpectra is tested against.
func (p *Plan) ConvolveSpectra(dsts [][]float64, src []float64, specs [][]complex128) {
	n := p.W * p.H
	if len(src) != n || len(dsts) != len(specs) {
		panic("fft: ConvolveSpectra dimension mismatch")
	}
	a, b := p.scratch()
	for i := range src {
		a[i] = complex(src[i], 0)
	}
	p.Forward2D(a)
	for s := range specs {
		spec, dst := specs[s], dsts[s]
		if len(spec) != n || len(dst) != n {
			panic("fft: ConvolveSpectra dimension mismatch")
		}
		for i := range a {
			b[i] = a[i] * spec[i]
		}
		p.Inverse2D(b)
		for i := range dst {
			dst[i] = real(b[i])
		}
	}
}
