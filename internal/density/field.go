package density

import (
	"math"
	"sync"

	"repro/internal/fft"
	"repro/internal/geom"
)

// Field is the force field induced by a density map, sampled at bin
// centers. Positive density (excess demand) repels; negative density
// (unused supply) attracts — the paper's eq. (9) and its interpretation in
// §3.4.
type Field struct {
	grid   *Grid
	FX, FY []float64
}

// Method selects how the Green's-function integral is evaluated.
type Method int

const (
	// Auto picks RealFFT on power-of-two grids of at least 2048 bins
	// (NX·NY, e.g. 64×32), Direct otherwise. The placer always uses it.
	Auto Method = iota
	// Direct evaluates eq. (9) by O(B²) superposition. It is the oracle
	// implementation.
	Direct
	// RealFFT evaluates the same superposition as a linear convolution on
	// a zero-padded grid in O(B log B), through real-input transforms
	// (fft.RealPlan): the density map and both kernels are real, so only
	// the Hermitian half-spectrum is computed and stored. Requires
	// power-of-two grid dimensions.
	RealFFT
)

// String returns the method's tag ("auto", "direct", "rfft").
func (m Method) String() string {
	switch m {
	case Direct:
		return "direct"
	case RealFFT:
		return "rfft"
	default:
		return "auto"
	}
}

// ComputeField evaluates the force field of g's current density map into
// a fresh Field.
func ComputeField(g *Grid, m Method) *Field { return ComputeFieldInto(nil, g, m) }

// ComputeFieldInto is ComputeField writing into dst, which it returns.
// dst's storage is reused when it matches g's bin count; a nil dst is
// allocated. An iterative caller keeps one Field and recomputes it every
// transformation without allocating.
func ComputeFieldInto(dst *Field, g *Grid, m Method) *Field {
	if dst == nil {
		dst = &Field{}
	}
	dst.grid = g
	if len(dst.FX) != len(g.D) {
		dst.FX = make([]float64, len(g.D))
		dst.FY = make([]float64, len(g.D))
	}
	if m == Auto {
		if g.NX*g.NY >= 2048 && fft.IsPow2(g.NX) && fft.IsPow2(g.NY) {
			m = RealFFT
		} else {
			m = Direct
		}
	}
	switch m {
	case Direct:
		computeDirect(dst, g)
	case RealFFT:
		g.fieldSolver().solve(dst, g)
	default:
		panic("density: unknown field method")
	}
	return dst
}

// computeDirect evaluates f(r) = Σ_b D_b · (r − r_b) / (2π·|r − r_b|²) at
// every bin center.
func computeDirect(f *Field, g *Grid) {
	for iy := 0; iy < g.NY; iy++ {
		for ix := 0; ix < g.NX; ix++ {
			i := g.Idx(ix, iy)
			p := g.BinCenter(ix, iy)
			var fx, fy float64
			for jy := 0; jy < g.NY; jy++ {
				for jx := 0; jx < g.NX; jx++ {
					j := g.Idx(jx, jy)
					if j == i || g.D[j] == 0 {
						continue
					}
					q := g.BinCenter(jx, jy)
					dx, dy := p.X-q.X, p.Y-q.Y
					r2 := dx*dx + dy*dy
					w := g.D[j] / (2 * math.Pi * r2)
					fx += w * dx
					fy += w * dy
				}
			}
			f.FX[i] = fx
			f.FY[i] = fy
		}
	}
}

// fieldKernels evaluates the Green's-function kernels Kx(d) = dx/(2π|d|²),
// Ky(d) = dy/(2π|d|²) over the pw×ph padded grid, with signed offsets
// wrapping so negative displacements live in the upper half.
func fieldKernels(g *Grid, pw, ph int) (kx, ky []float64) {
	n := pw * ph
	kx = make([]float64, n)
	ky = make([]float64, n)
	for oy := 0; oy < ph; oy++ {
		for ox := 0; ox < pw; ox++ {
			dxb := ox
			if dxb > pw/2 {
				dxb -= pw
			}
			dyb := oy
			if dyb > ph/2 {
				dyb -= ph
			}
			if dxb == 0 && dyb == 0 {
				continue
			}
			dx := float64(dxb) * g.BinW
			dy := float64(dyb) * g.BinH
			r2 := dx*dx + dy*dy
			kx[oy*pw+ox] = dx / (2 * math.Pi * r2)
			ky[oy*pw+ox] = dy / (2 * math.Pi * r2)
		}
	}
	return kx, ky
}

// fieldCache is the reusable field solver of one grid: the real-input
// transform plan for the grid zero-padded to 2NX×2NY (so the cyclic
// convolution equals the linear one on the region), the half-spectra of the
// two kernels (they depend only on the grid geometry, fixed at
// construction, and are read-only, see kernelSpectra), and the padded
// scratch fields. With it, each field solve
// costs one forward and two inverse transforms.
type fieldCache struct {
	pw    int
	plan  *fft.RealPlan
	specs [2][]complex128
	src   []float64
	out   [2][]float64
}

func (g *Grid) fieldSolver() *fieldCache {
	if g.fcache != nil {
		return g.fcache
	}
	pw, ph := fft.NextPow2(2*g.NX), fft.NextPow2(2*g.NY)
	n := pw * ph
	fc := &fieldCache{pw: pw, plan: fft.NewRealPlan(pw, ph), src: make([]float64, n)}
	fc.specs = kernelSpectra(g, fc.plan)
	for i := range fc.out {
		fc.out[i] = make([]float64, n)
	}
	g.fcache = fc
	return fc
}

// kernelKey is what the kernel spectra depend on: the padded plan size and
// the bin size.
type kernelKey struct {
	pw, ph     int
	binW, binH uint64 // math.Float64bits
}

// lastKernels holds the kernel spectra of the most recently built field
// solver. Nothing writes them once they are computed, so every grid of the
// same geometry can read the same ones: an ECO re-placement, for one,
// builds a fresh grid over the same region on every run. One slot bounds
// what a process placing many geometries keeps.
var lastKernels struct {
	sync.Mutex
	key   kernelKey
	specs [2][]complex128
}

// kernelSpectra returns the half-spectra of g's two field kernels on plan,
// shared with the previous grid of the same geometry when there was one.
func kernelSpectra(g *Grid, plan *fft.RealPlan) [2][]complex128 {
	key := kernelKey{plan.W, plan.H, math.Float64bits(g.BinW), math.Float64bits(g.BinH)}
	lastKernels.Lock()
	defer lastKernels.Unlock()
	if lastKernels.key == key && lastKernels.specs[0] != nil {
		return lastKernels.specs
	}
	var specs [2][]complex128
	kx, ky := fieldKernels(g, plan.W, plan.H)
	for i, k := range [2][]float64{kx, ky} {
		specs[i] = make([]complex128, plan.SpecLen())
		plan.Spectrum(specs[i], k)
	}
	lastKernels.key, lastKernels.specs = key, specs
	return specs
}

// solve scatters the density map into the padded source and runs the
// cached-spectrum convolutions for both kernels, writing the field into f.
func (fc *fieldCache) solve(f *Field, g *Grid) {
	pw := fc.pw
	for i := range fc.src {
		fc.src[i] = 0
	}
	for iy := 0; iy < g.NY; iy++ {
		for ix := 0; ix < g.NX; ix++ {
			fc.src[iy*pw+ix] = g.D[g.Idx(ix, iy)]
		}
	}
	// The source is zero past row NY and only rows below NY are read
	// back, so the padding rows' row transforms are skipped.
	fc.plan.ConvolveSpectraRows(fc.out[:], fc.src, fc.specs[:], g.NY)
	for iy := 0; iy < g.NY; iy++ {
		for ix := 0; ix < g.NX; ix++ {
			f.FX[g.Idx(ix, iy)] = fc.out[0][iy*pw+ix]
			f.FY[g.Idx(ix, iy)] = fc.out[1][iy*pw+ix]
		}
	}
}

// At returns the field vector at an arbitrary point by bilinear
// interpolation of the bin-center samples. Points outside the region are
// clamped onto it.
func (f *Field) At(p geom.Point) geom.Point {
	g := f.grid
	// Convert to fractional bin-center coordinates.
	fx := (p.X-g.Region.Lo.X)/g.BinW - 0.5
	fy := (p.Y-g.Region.Lo.Y)/g.BinH - 0.5
	fx = math.Max(0, math.Min(float64(g.NX-1), fx))
	fy = math.Max(0, math.Min(float64(g.NY-1), fy))
	ix0 := int(fx)
	iy0 := int(fy)
	ix1 := clampInt(ix0+1, 0, g.NX-1)
	iy1 := clampInt(iy0+1, 0, g.NY-1)
	tx := fx - float64(ix0)
	ty := fy - float64(iy0)

	i00, i10 := g.Idx(ix0, iy0), g.Idx(ix1, iy0)
	i01, i11 := g.Idx(ix0, iy1), g.Idx(ix1, iy1)
	return geom.Point{
		X: bilerp(f.FX[i00], f.FX[i10], f.FX[i01], f.FX[i11], tx, ty),
		Y: bilerp(f.FY[i00], f.FY[i10], f.FY[i01], f.FY[i11], tx, ty),
	}
}

// bilerp interpolates the four corner samples at fractional offsets tx, ty.
func bilerp(v00, v10, v01, v11, tx, ty float64) float64 {
	return (1-ty)*((1-tx)*v00+tx*v10) + ty*((1-tx)*v01+tx*v11)
}

// MaxMagnitude returns the largest |f| over all bins, used for the paper's
// K·(W+H) force normalization. A field with a NaN anywhere returns NaN and
// one with an infinite component +Inf, so the one pass over the bins also
// tells whether the field is finite.
func (f *Field) MaxMagnitude() float64 {
	var m float64
	for i := range f.FX {
		v := f.FX[i]*f.FX[i] + f.FY[i]*f.FY[i]
		if v > m || v != v {
			m = v
		}
	}
	return math.Sqrt(m)
}

// Curl estimates the discrete curl ∂fy/∂x − ∂fx/∂y summed in absolute value
// over interior bins, normalized by the summed field magnitude. Requirement
// 3 of the paper says the true field is curl-free; this diagnostic verifies
// the numerics (used by tests).
func (f *Field) Curl() float64 {
	g := f.grid
	var curl, mag float64
	for iy := 1; iy < g.NY-1; iy++ {
		for ix := 1; ix < g.NX-1; ix++ {
			dfy := (f.FY[g.Idx(ix+1, iy)] - f.FY[g.Idx(ix-1, iy)]) / (2 * g.BinW)
			dfx := (f.FX[g.Idx(ix, iy+1)] - f.FX[g.Idx(ix, iy-1)]) / (2 * g.BinH)
			curl += math.Abs(dfy - dfx)
			m := math.Hypot(f.FX[g.Idx(ix, iy)], f.FY[g.Idx(ix, iy)])
			mag += m / math.Min(g.BinW, g.BinH)
		}
	}
	if mag == 0 {
		return 0
	}
	return curl / mag
}
