package fft

import (
	"fmt"
	"math"
)

// RealPlan is a W×H 2-D transform pipeline for real input. It exploits the
// Hermitian symmetry of real signals, F[k,v] = conj(F[(W−k)%W, (H−v)%H]),
// to transform and store only the non-redundant half-spectrum of
// (W/2+1)×H complex values — half the transform flops and half the
// spectrum memory of a complex 2-D FFT.
//
// The row pass packs two adjacent real rows into one complex signal
// (c = row_y + i·row_{y+1}), runs a single length-W complex FFT on the
// shared radix-2 tables, and unpacks both rows' half-spectra from the
// symmetric/antisymmetric parts; the column pass then transforms only the
// W/2+1 retained columns, as one sweep over whole spectrum rows (see
// transformCols). Every pass runs on the calling goroutine: a caller that
// wants the transform beside other work forks it onto a lane of its own,
// as the placement step does. The row passes pack through one line buffer
// the plan keeps, so a warmed transform allocates nothing.
//
// A RealPlan's scratch is not safe for concurrent use; share tables, not
// plans.
type RealPlan struct {
	W, H int
	hw   int // W/2 + 1: retained spectrum columns
	row  *radix2
	col  *radix2
	a, b []complex128 // lazily allocated hw·H spectrum scratch
	line []complex128 // the row passes' length-W packing buffer
}

// NewRealPlan prepares a real-input plan for W×H grids (both powers of
// two). Tables are shared globally between plans of the same lengths.
func NewRealPlan(w, h int) *RealPlan {
	if !IsPow2(w) || !IsPow2(h) {
		panic(fmt.Sprintf("fft: real plan %dx%d not power-of-two", w, h))
	}
	return &RealPlan{W: w, H: h, hw: w/2 + 1, row: tableFor(w), col: tableFor(h), line: make([]complex128, w)}
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
	p.forwardRows(dst, src, p.H)
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
	p.inverse(dst, b, p.H)
}

// inverse is the destructive core of Inverse: spec is consumed as scratch,
// and only the first rows rows of dst are written.
func (p *RealPlan) inverse(dst []float64, spec []complex128, rows int) {
	p.transformCols(spec, true)
	p.inverseRows(dst, spec, rows)
}

// forwardRows runs the packed-pair row transforms of src into the
// half-spectrum layout of spec (stride hw, one row per grid row). Rows of
// src at or beyond rows must be +0; a pair of such rows is not
// transformed, and its spectrum is written as the transform would leave
// it: +0 throughout, except −0 in the imaginary part of the odd row's
// k ≥ 1 entries, which the unpacking negates.
func (p *RealPlan) forwardRows(spec []complex128, src []float64, rows int) {
	w, h, hw := p.W, p.H, p.hw
	if h == 1 {
		// A single row has no partner to pack with: transform it as a
		// complex signal and keep the non-redundant half.
		c := p.line
		for x, v := range src {
			c[x] = complex(v, 0)
		}
		p.row.transform(c, false)
		copy(spec, c[:hw])
		return
	}
	pairs := (rows + 1) / 2
	zero := complex(0, math.Copysign(0, -1))
	for y := 2 * pairs; y < h; y += 2 {
		s0 := spec[y*hw : (y+1)*hw]
		s1 := spec[(y+1)*hw : (y+2)*hw]
		clear(s0)
		s1[0] = 0
		for k := 1; k < hw; k++ {
			s1[k] = zero
		}
	}
	c := p.line
	for y := 0; y < 2*pairs; y += 2 {
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
}

// inverseRows reconstructs pairs of real rows from the (already
// column-inverted) half-spectrum rows of spec, applying the final 1/(W·H)
// scaling. Only the pairs holding the first rows rows are reconstructed;
// the rest of dst is left as it was.
func (p *RealPlan) inverseRows(dst []float64, spec []complex128, rows int) {
	w, h, hw := p.W, p.H, p.hw
	scale := 1 / float64(w*h)
	if h == 1 {
		c := p.line
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
	c := p.line
	for y := 0; y < rows; y += 2 {
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
}

// transformCols runs a length-H transform down each of the hw retained
// spectrum columns. It sweeps whole rows instead of gathering one strided
// column at a time: the bit-reversal swaps rows, and each butterfly of a
// stage pairs two rows under one twiddle, applied across the row. Every
// column thus gets exactly radix2.transform's operations, in its order,
// while the sweep reads the spectrum contiguously.
func (p *RealPlan) transformCols(spec []complex128, inverse bool) {
	t, hw := p.col, p.hw
	h := t.n
	if h == 1 {
		return
	}
	for i, jj := range t.rev {
		if j := int(jj); i < j {
			ri, rj := spec[i*hw:(i+1)*hw], spec[j*hw:(j+1)*hw]
			for x := range ri {
				ri[x], rj[x] = rj[x], ri[x]
			}
		}
	}
	tw := t.twF
	if inverse {
		tw = t.twI
	}
	for size := 2; size <= h; size <<= 1 {
		half := size / 2
		ws := tw[half-1 : size-1]
		for start := 0; start < h; start += size {
			for k, w := range ws {
				lo := spec[(start+k)*hw : (start+k+1)*hw]
				hi := spec[(start+half+k)*hw : (start+half+k+1)*hw]
				for x := range lo {
					u := lo[x]
					v := hi[x] * w
					lo[x] = u + v
					hi[x] = u - v
				}
			}
		}
	}
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
	a, b := p.scratch()
	p.Spectrum(a, src)
	p.forwardRows(b, kernel, p.H)
	p.transformCols(b, false)
	for i := range a {
		b[i] *= a[i]
	}
	p.inverse(dst, b, p.H)
}

// ConvolveSpectra transforms src once and convolves it against each cached
// half-spectrum: dsts[i] receives IRFFT(RFFT(src)·specs[i]). Pointwise
// products of Hermitian half-spectra are exactly the half-spectra of the
// full-spectrum products, so this matches a complex full-spectrum
// convolution to roundoff at half the transform cost.
func (p *RealPlan) ConvolveSpectra(dsts [][]float64, src []float64, specs [][]complex128) {
	p.ConvolveSpectraRows(dsts, src, specs, p.H)
}

// ConvolveSpectraRows is ConvolveSpectra for a zero-padded convolution:
// every row of src at or beyond rows is +0, and only the first rows rows
// of each destination are wanted. It skips the forward row transforms of
// the all-zero row pairs and the inverse row transforms of the pairs past
// rows, leaving those destination rows unspecified. The rows it does
// write are bit-identical to ConvolveSpectra's: the skipped forward pairs
// get exactly the spectrum their transform would produce, and the column
// passes run in full.
func (p *RealPlan) ConvolveSpectraRows(dsts [][]float64, src []float64, specs [][]complex128, rows int) {
	n := p.W * p.H
	if len(src) != n || len(dsts) != len(specs) || rows < 1 || rows > p.H {
		panic("fft: RealPlan.ConvolveSpectra dimension mismatch")
	}
	a, b := p.scratch()
	p.forwardRows(a, src, rows)
	p.transformCols(a, false)
	for s := range specs {
		spec, dst := specs[s], dsts[s]
		if len(spec) != p.SpecLen() || len(dst) != n {
			panic("fft: RealPlan.ConvolveSpectra dimension mismatch")
		}
		for i := range a {
			b[i] = a[i] * spec[i]
		}
		p.inverse(dst, b, rows)
	}
}
