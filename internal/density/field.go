package density

import (
	"math"

	"repro/internal/fft"
	"repro/internal/geom"
	"repro/internal/obsv"
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

// fieldSeconds times field evaluations per effective method (indexed by
// Direct/RealFFT). Nil until EnableMetrics; a nil histogram skips even
// the clock reads.
var fieldSeconds [3]*obsv.Histogram

// EnableMetrics registers field-evaluation timing in r:
//
//	density_field_seconds{method="direct"|"rfft"}
//
// labeled by the *effective* method (Auto resolves before recording).
// Passing nil detaches the package from any registry.
func EnableMetrics(r *obsv.Registry) {
	if r == nil {
		fieldSeconds = [3]*obsv.Histogram{}
		return
	}
	for _, m := range []Method{Direct, RealFFT} {
		fieldSeconds[m] = r.Histogram(`density_field_seconds{method="`+m.String()+`"}`,
			"force-field evaluation wall time in seconds", obsv.SecondsBuckets)
	}
}

// ComputeField evaluates the force field of g's current density map.
func ComputeField(g *Grid, m Method) *Field {
	if m == Auto {
		if g.NX*g.NY >= 2048 && fft.IsPow2(g.NX) && fft.IsPow2(g.NY) {
			m = RealFFT
		} else {
			m = Direct
		}
	}
	observe := fieldSeconds[m].Time()
	var f *Field
	switch m {
	case Direct:
		f = computeDirect(g)
	case RealFFT:
		f = g.fieldSolver().solve(g)
	default:
		panic("density: unknown field method")
	}
	observe()
	return f
}

// computeDirect evaluates f(r) = Σ_b D_b · (r − r_b) / (2π·|r − r_b|²) at
// every bin center.
func computeDirect(g *Grid) *Field {
	f := &Field{grid: g, FX: make([]float64, len(g.D)), FY: make([]float64, len(g.D))}
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
	return f
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
// construction), and the padded scratch fields. With it, each field solve
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
	kx, ky := fieldKernels(g, pw, ph)
	for i, k := range [2][]float64{kx, ky} {
		fc.specs[i] = make([]complex128, fc.plan.SpecLen())
		fc.plan.Spectrum(fc.specs[i], k)
		fc.out[i] = make([]float64, n)
	}
	g.fcache = fc
	return fc
}

// solve scatters the density map into the padded source and runs the
// cached-spectrum convolutions for both kernels.
func (fc *fieldCache) solve(g *Grid) *Field {
	pw := fc.pw
	for i := range fc.src {
		fc.src[i] = 0
	}
	for iy := 0; iy < g.NY; iy++ {
		for ix := 0; ix < g.NX; ix++ {
			fc.src[iy*pw+ix] = g.D[g.Idx(ix, iy)]
		}
	}
	fc.plan.ConvolveSpectra(fc.out[:], fc.src, fc.specs[:])
	f := &Field{grid: g, FX: make([]float64, len(g.D)), FY: make([]float64, len(g.D))}
	for iy := 0; iy < g.NY; iy++ {
		for ix := 0; ix < g.NX; ix++ {
			f.FX[g.Idx(ix, iy)] = fc.out[0][iy*pw+ix]
			f.FY[g.Idx(ix, iy)] = fc.out[1][iy*pw+ix]
		}
	}
	return f
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
// K·(W+H) force normalization.
func (f *Field) MaxMagnitude() float64 {
	var m float64
	for i := range f.FX {
		v := f.FX[i]*f.FX[i] + f.FY[i]*f.FY[i]
		if v > m {
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
