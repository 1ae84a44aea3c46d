package fft

// The complex transforms below are the test reference for RealPlan: plain
// serial loops over the production radix-2 kernel, with no fan-out and no
// cached scratch. RealPlan's half-spectra and convolutions are compared
// against their full-spectrum answers.

// Forward performs an in-place forward FFT of a. len(a) must be a power of
// two.
func Forward(a []complex128) { tableFor(len(a)).transform(a, false) }

// Inverse performs an in-place inverse FFT of a, including the 1/n scaling.
// len(a) must be a power of two.
func Inverse(a []complex128) {
	tableFor(len(a)).transform(a, true)
	normalize(a)
}

// normalize applies an inverse transform's 1/len(a) scaling.
func normalize(a []complex128) {
	scale := complex(1/float64(len(a)), 0)
	for i := range a {
		a[i] *= scale
	}
}

// Plan is the complex 2-D FFT of a W×H grid (both powers of two).
type Plan struct {
	W, H     int
	row, col *radix2
}

// NewPlan prepares a plan for W×H grids; it panics unless both are powers
// of two.
func NewPlan(w, h int) *Plan {
	return &Plan{W: w, H: h, row: tableFor(w), col: tableFor(h)}
}

// Forward2D performs the in-place forward 2-D FFT of data (row-major W×H).
func (p *Plan) Forward2D(data []complex128) { p.transform2D(data, false) }

// Inverse2D performs the in-place inverse 2-D FFT of data, including the
// 1/(W·H) scaling.
func (p *Plan) Inverse2D(data []complex128) {
	p.transform2D(data, true)
	normalize(data)
}

func (p *Plan) transform2D(data []complex128, inverse bool) {
	w, h := p.W, p.H
	if len(data) != w*h {
		panic("fft: transform2D dimension mismatch")
	}
	for y := 0; y < h; y++ {
		p.row.transform(data[y*w:(y+1)*w], inverse)
	}
	col := make([]complex128, h)
	for x := 0; x < w; x++ {
		for y := range col {
			col[y] = data[y*w+x]
		}
		p.col.transform(col, inverse)
		for y, v := range col {
			data[y*w+x] = v
		}
	}
}

// Spectrum computes the forward 2-D transform of the real field src into
// dst (both length W·H).
func (p *Plan) Spectrum(dst []complex128, src []float64) {
	for i, v := range src {
		dst[i] = complex(v, 0)
	}
	p.Forward2D(dst)
}

// Convolve computes the cyclic 2-D convolution of src with kernel into dst
// (all length W·H), transforming both inputs.
func (p *Plan) Convolve(dst, src, kernel []float64) {
	a := make([]complex128, p.W*p.H)
	b := make([]complex128, p.W*p.H)
	p.Spectrum(a, src)
	p.Spectrum(b, kernel)
	for i := range a {
		a[i] *= b[i]
	}
	p.Inverse2D(a)
	for i := range dst {
		dst[i] = real(a[i])
	}
}

// ConvolveSpectra transforms src once and convolves it against each kernel
// spectrum: dsts[i] receives the real part of IFFT(FFT(src)·specs[i]).
func (p *Plan) ConvolveSpectra(dsts [][]float64, src []float64, specs [][]complex128) {
	a := make([]complex128, p.W*p.H)
	b := make([]complex128, p.W*p.H)
	p.Spectrum(a, src)
	for s, spec := range specs {
		for i := range a {
			b[i] = a[i] * spec[i]
		}
		p.Inverse2D(b)
		for i := range dsts[s] {
			dsts[s][i] = real(b[i])
		}
	}
}
