package fft

import (
	"fmt"

	"repro/internal/par"
)

// RealPlan is the real-input counterpart of Plan: a W×H pipeline that
// exploits the Hermitian symmetry of real signals, F[k,v] =
// conj(F[(W−k)%W, (H−v)%H]), to transform and store only the non-redundant
// half-spectrum of (W/2+1)×H complex values — half the transform flops and
// half the spectrum memory of the complex pipeline.
//
// The row pass packs two adjacent real rows into one complex signal
// (c = row_y + i·row_{y+1}), runs a single length-W complex FFT on the
// shared radix-2 tables, and unpacks both rows' half-spectra from the
// symmetric/antisymmetric parts; the column pass then transforms only the
// W/2+1 retained columns. Both passes fan out across GOMAXPROCS goroutines
// above par.Threshold with the same per-row/per-column serial kernels, so
// results are bit-identical to the serial path.
//
// A RealPlan's scratch is not safe for concurrent use; share tables, not
// plans.
type RealPlan struct {
	W, H int
	hw   int // W/2 + 1: retained spectrum columns
	row  *radix2
	col  *radix2
	a, b []complex128 // lazily allocated hw·H spectrum scratch
}

// NewRealPlan prepares a real-input plan for W×H grids (both powers of
// two). Tables are shared globally with complex plans of the same lengths.
func NewRealPlan(w, h int) *RealPlan {
	if !IsPow2(w) || !IsPow2(h) {
		panic(fmt.Sprintf("fft: real plan %dx%d not power-of-two", w, h))
	}
	return &RealPlan{W: w, H: h, hw: w/2 + 1, row: tableFor(w), col: tableFor(h)}
}

// SpecLen returns the length of a half-spectrum: (W/2+1)·H. Spectrum
// destinations and cached kernel spectra must have exactly this length.
func (p *RealPlan) SpecLen() int { return p.hw * p.H }

// Spectrum computes the forward real-input 2-D transform of src (row-major
// W×H) into the half-spectrum dst (length SpecLen, row-major with stride
// W/2+1). Entry k of row v is the full spectrum's F[k,v] for k ≤ W/2; the
// redundant columns are implied by Hermitian symmetry.
func (p *RealPlan) Spectrum(dst []complex128, src []float64) {
	if len(dst) != p.SpecLen() || len(src) != p.W*p.H {
		panic("fft: RealPlan.Spectrum dimension mismatch")
	}
	p.forwardRows(dst, src)
	p.transformCols(dst, false)
}

// Inverse reconstructs the real field dst (length W·H) from the
// half-spectrum spec (length SpecLen), including the 1/(W·H) scaling.
// spec is left untouched.
func (p *RealPlan) Inverse(dst []float64, spec []complex128) {
	if len(dst) != p.W*p.H || len(spec) != p.SpecLen() {
		panic("fft: RealPlan.Inverse dimension mismatch")
	}
	_, b := p.scratch()
	copy(b, spec)
	p.inverse(dst, b)
}

// inverse is the destructive core of Inverse: spec is consumed as scratch.
func (p *RealPlan) inverse(dst []float64, spec []complex128) {
	p.transformCols(spec, true)
	p.inverseRows(dst, spec)
}

// forwardRows runs the packed-pair row transforms of src into the
// half-spectrum layout of spec (stride hw, one row per grid row).
func (p *RealPlan) forwardRows(spec []complex128, src []float64) {
	w, h, hw := p.W, p.H, p.hw
	if h == 1 {
		// A single row has no partner to pack with: transform it as a
		// complex signal and keep the non-redundant half.
		c := make([]complex128, w)
		for x, v := range src {
			c[x] = complex(v, 0)
		}
		p.row.transform(c, false)
		copy(spec, c[:hw])
		return
	}
	par.Run(par.Workers(w*h), h/2, func(_, lo, hi int) {
		c := make([]complex128, w)
		for pr := lo; pr < hi; pr++ {
			y := 2 * pr
			r0 := src[y*w : (y+1)*w]
			r1 := src[(y+1)*w : (y+2)*w]
			for x := range c {
				c[x] = complex(r0[x], r1[x])
			}
			p.row.transform(c, false)
			// Unpack: with C = FFT(r0 + i·r1),
			//   F0[k] = (C[k] + conj(C[W−k]))/2
			//   F1[k] = −i·(C[k] − conj(C[W−k]))/2
			// (k=0 and k=W/2 are self-mirrored, covered by the same code).
			s0 := spec[y*hw : (y+1)*hw]
			s1 := spec[(y+1)*hw : (y+2)*hw]
			s0[0] = complex(real(c[0]), 0)
			s1[0] = complex(imag(c[0]), 0)
			for k := 1; k < hw; k++ {
				u := c[k]
				v := c[w-k]
				sr, si := real(u)+real(v), imag(u)-imag(v)
				dr, di := real(u)-real(v), imag(u)+imag(v)
				s0[k] = complex(sr/2, si/2)
				s1[k] = complex(di/2, -dr/2)
			}
		}
	})
}

// inverseRows reconstructs pairs of real rows from the (already
// column-inverted) half-spectrum rows of spec, applying the final 1/(W·H)
// scaling.
func (p *RealPlan) inverseRows(dst []float64, spec []complex128) {
	w, h, hw := p.W, p.H, p.hw
	scale := 1 / float64(w*h)
	if h == 1 {
		c := make([]complex128, w)
		copy(c, spec[:hw])
		for k := hw; k < w; k++ {
			m := spec[w-k]
			c[k] = complex(real(m), -imag(m))
		}
		p.row.transform(c, true)
		for x := range dst {
			dst[x] = real(c[x]) * scale
		}
		return
	}
	par.Run(par.Workers(w*h), h/2, func(_, lo, hi int) {
		c := make([]complex128, w)
		for pr := lo; pr < hi; pr++ {
			y := 2 * pr
			g0 := spec[y*hw : (y+1)*hw]
			g1 := spec[(y+1)*hw : (y+2)*hw]
			// Pack the Hermitian extensions of both rows into one complex
			// inverse: C[k] = G0[k] + i·G1[k], with the mirrored tail
			// C[W−m] = conj(G0[m]) + i·conj(G1[m]).
			for k := 0; k < hw; k++ {
				c[k] = complex(real(g0[k])-imag(g1[k]), imag(g0[k])+real(g1[k]))
			}
			for k := hw; k < w; k++ {
				m0, m1 := g0[w-k], g1[w-k]
				c[k] = complex(real(m0)+imag(m1), real(m1)-imag(m0))
			}
			p.row.transform(c, true)
			d0 := dst[y*w : (y+1)*w]
			d1 := dst[(y+1)*w : (y+2)*w]
			for x, v := range c {
				d0[x] = real(v) * scale
				d1[x] = imag(v) * scale
			}
		}
	})
}

// transformCols runs length-H transforms down each of the hw retained
// spectrum columns, gathered through per-worker scratch.
func (p *RealPlan) transformCols(spec []complex128, inverse bool) {
	h, hw := p.H, p.hw
	if h == 1 {
		return
	}
	par.Run(par.Workers(p.W*h), hw, func(_, lo, hi int) {
		col := make([]complex128, h)
		for x := lo; x < hi; x++ {
			for y := 0; y < h; y++ {
				col[y] = spec[y*hw+x]
			}
			p.col.transform(col, inverse)
			for y := 0; y < h; y++ {
				spec[y*hw+x] = col[y]
			}
		}
	})
}

// scratch returns the plan's two owned half-spectrum grids.
func (p *RealPlan) scratch() (a, b []complex128) {
	if p.a == nil {
		p.a = make([]complex128, p.SpecLen())
		p.b = make([]complex128, p.SpecLen())
	}
	return p.a, p.b
}

// Convolve computes the cyclic 2-D convolution of src with kernel into dst
// (all length W·H), transforming both real inputs through half-spectra.
// Prefer ConvolveSpectra with a cached kernel spectrum on iterative paths.
func (p *RealPlan) Convolve(dst, src, kernel []float64) {
	n := p.W * p.H
	if len(dst) != n || len(src) != n || len(kernel) != n {
		panic("fft: RealPlan.Convolve dimension mismatch")
	}
	defer convolveSeconds.Time()()
	a, b := p.scratch()
	p.Spectrum(a, src)
	p.forwardRows(b, kernel)
	p.transformCols(b, false)
	for i := range a {
		b[i] *= a[i]
	}
	p.inverse(dst, b)
}

// ConvolveSpectra transforms src once and convolves it against each cached
// half-spectrum: dsts[i] receives IRFFT(RFFT(src)·specs[i]). Pointwise
// products of Hermitian half-spectra are exactly the half-spectra of the
// full-spectrum products, so this matches Plan.ConvolveSpectra to roundoff
// at half the transform cost.
func (p *RealPlan) ConvolveSpectra(dsts [][]float64, src []float64, specs [][]complex128) {
	n := p.W * p.H
	if len(src) != n || len(dsts) != len(specs) {
		panic("fft: RealPlan.ConvolveSpectra dimension mismatch")
	}
	defer convolveSeconds.Time()()
	a, b := p.scratch()
	p.Spectrum(a, src)
	for s := range specs {
		spec, dst := specs[s], dsts[s]
		if len(spec) != p.SpecLen() || len(dst) != n {
			panic("fft: RealPlan.ConvolveSpectra dimension mismatch")
		}
		for i := range a {
			b[i] = a[i] * spec[i]
		}
		p.inverse(dst, b)
	}
}
