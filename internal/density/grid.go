// Package density implements the paper's supply-and-demand density model
// (§3.3, eq. 4) and the resulting force field (eq. 5–9): cell area is demand,
// the placement area scaled by the utilization s is supply, and the signed
// density D(x,y) drives a conservative force field obtained from Poisson's
// equation with zero field at infinity.
package density

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/par"
)

// Grid bins the placement area and accumulates demand/supply/density per
// bin. Density values are areas (layout units²) per bin.
type Grid struct {
	Region geom.Rect
	NX, NY int
	BinW   float64
	BinH   float64

	// Demand is the movable cell area overlapping each bin.
	Demand []float64
	// Supply is the scaled available area per bin: s · binArea inside the
	// region outline.
	Supply []float64
	// D is Demand − Supply, the paper's D(x,y) integrated over the bin.
	D []float64
	// Extra holds additional demand injected by congestion- or heat-driven
	// placement; it participates in D but is rescaled so ∫D stays 0.
	Extra []float64

	// scratch backs AddArea's deposit staging; shards are the per-worker
	// deposit buffers of the parallel Accumulate, reused across iterations.
	scratch []deposit
	shards  [][]deposit
	// fcache is the lazily built RealFFT field solver (see field.go).
	fcache *fieldCache
}

// deposit is one bin contribution of one cell: the demand gather computes
// deposits (the expensive geometry work) possibly in parallel, then applies
// them to the demand map strictly in cell order, so the accumulated sums
// are bit-identical to the serial path for any worker count.
type deposit struct {
	idx int
	val float64
}

// NewGrid creates an nx×ny grid over the region outline.
func NewGrid(region geom.Rect, nx, ny int) *Grid {
	if nx < 1 || ny < 1 || region.Empty() {
		panic(fmt.Sprintf("density: bad grid %dx%d over %v", nx, ny, region))
	}
	n := nx * ny
	return &Grid{
		Region: region,
		NX:     nx, NY: ny,
		BinW:   region.W() / float64(nx),
		BinH:   region.H() / float64(ny),
		Demand: make([]float64, n),
		Supply: make([]float64, n),
		D:      make([]float64, n),
		Extra:  make([]float64, n),
	}
}

// Idx returns the linear index of bin (ix, iy).
func (g *Grid) Idx(ix, iy int) int { return iy*g.NX + ix }

// BinCenter returns the center point of bin (ix, iy).
func (g *Grid) BinCenter(ix, iy int) geom.Point {
	return geom.Point{
		X: g.Region.Lo.X + (float64(ix)+0.5)*g.BinW,
		Y: g.Region.Lo.Y + (float64(iy)+0.5)*g.BinH,
	}
}

// BinRect returns the rectangle of bin (ix, iy).
func (g *Grid) BinRect(ix, iy int) geom.Rect {
	return geom.RectWH(
		g.Region.Lo.X+float64(ix)*g.BinW,
		g.Region.Lo.Y+float64(iy)*g.BinH,
		g.BinW, g.BinH,
	)
}

// binRange returns the bin index span [i0,i1] overlapped by [lo,hi] along
// one axis with n bins of size step starting at origin.
func binRange(lo, hi, origin, step float64, n int) (int, int) {
	i0 := int(math.Floor((lo - origin) / step))
	i1 := int(math.Ceil((hi-origin)/step)) - 1
	if i0 < 0 {
		i0 = 0
	}
	if i1 >= n {
		i1 = n - 1
	}
	return i0, i1
}

// Accumulate recomputes Demand, Supply and D from the current cell
// positions. Movable cell area is sprayed into bins by exact rectangle
// overlap; area hanging outside the region is clamped into the boundary
// bins so demand is conserved. Designs with at least par.Threshold cells
// compute their deposits on all CPUs; the demand map is bit-identical to
// the serial result because deposits are applied in cell order either way.
func (g *Grid) Accumulate(nl *netlist.Netlist) {
	for i := range g.Demand {
		g.Demand[i] = 0
	}
	n := len(nl.Cells)
	workers := par.Workers(n)
	if workers <= 1 {
		for ci := 0; ci < n; ci++ {
			c := &nl.Cells[ci]
			if c.Fixed {
				continue
			}
			g.AddArea(c.Rect(), 1)
		}
		g.finish()
		return
	}
	if len(g.shards) < workers {
		g.shards = make([][]deposit, workers)
	}
	shards := g.shards[:workers]
	par.Run(workers, n, func(w, lo, hi int) {
		buf := shards[w][:0]
		for ci := lo; ci < hi; ci++ {
			c := &nl.Cells[ci]
			if c.Fixed {
				continue
			}
			buf = g.appendDeposits(buf, c.Rect(), 1)
		}
		shards[w] = buf
	})
	// Worker w handled the w-th contiguous cell range, so applying shards
	// in worker order replays the exact serial addition order.
	for _, sh := range shards {
		for _, d := range sh {
			g.Demand[d.idx] += d.val
		}
	}
	g.finish()
}

// AddArea sprays scale·area(r) into the demand map by rectangle overlap.
// Portions of r outside the region are attributed to the nearest boundary
// bins, conserving total demand.
func (g *Grid) AddArea(r geom.Rect, scale float64) {
	g.scratch = g.appendDeposits(g.scratch[:0], r, scale)
	for _, d := range g.scratch {
		g.Demand[d.idx] += d.val
	}
}

// appendDeposits computes the bin deposits of spraying scale·area(r) into
// the demand map and appends them to buf. It only reads the grid geometry,
// so distinct buffers may be filled concurrently; applying the returned
// deposits in append order reproduces AddArea exactly.
func (g *Grid) appendDeposits(buf []deposit, r geom.Rect, scale float64) []deposit {
	if r.Empty() {
		// Zero-area cells (points) still deposit nothing; ignore.
		return buf
	}
	// Clamp the rect into the region, preserving its area, so off-region
	// demand pushes back from the boundary.
	w, h := r.W(), r.H()
	c := g.Region.ClampCenter(r.Center(), math.Min(w, g.Region.W()), math.Min(h, g.Region.H()))
	r = geom.RectCenteredAt(c, w, h)

	ix0, ix1 := binRange(r.Lo.X, r.Hi.X, g.Region.Lo.X, g.BinW, g.NX)
	iy0, iy1 := binRange(r.Lo.Y, r.Hi.Y, g.Region.Lo.Y, g.BinH, g.NY)
	total := r.Area()
	deposited := 0.0
	for iy := iy0; iy <= iy1; iy++ {
		for ix := ix0; ix <= ix1; ix++ {
			ov := g.BinRect(ix, iy).Overlap(r)
			if ov > 0 {
				buf = append(buf, deposit{g.Idx(ix, iy), scale * ov})
				deposited += ov
			}
		}
	}
	// Any residue clipped off the region edge lands in the nearest corner
	// bin so ∫demand = cell area exactly.
	if res := total - deposited; res > 1e-12*total {
		cx := clampInt(int((r.Center().X-g.Region.Lo.X)/g.BinW), 0, g.NX-1)
		cy := clampInt(int((r.Center().Y-g.Region.Lo.Y)/g.BinH), 0, g.NY-1)
		buf = append(buf, deposit{g.Idx(cx, cy), scale * res})
	}
	return buf
}

// finish computes Supply and D from the accumulated demand.
func (g *Grid) finish() {
	regionArea := g.Region.Area()
	// Fold Extra demand in, then scale supply so the integral of D is
	// exactly zero (the paper scales supply by s for the same reason).
	totalDemand := 0.0
	for i := range g.Demand {
		g.Demand[i] += g.Extra[i]
		totalDemand += g.Demand[i]
	}
	binArea := g.BinW * g.BinH
	s := totalDemand / regionArea
	for i := range g.Supply {
		g.Supply[i] = s * binArea
		g.D[i] = g.Demand[i] - g.Supply[i]
	}
}

// SetExtra replaces the injected extra-demand map (len NX·NY); pass nil to
// clear. Used by congestion- and heat-driven placement.
func (g *Grid) SetExtra(extra []float64) {
	if extra == nil {
		for i := range g.Extra {
			g.Extra[i] = 0
		}
		return
	}
	if len(extra) != len(g.Extra) {
		panic("density: SetExtra dimension mismatch")
	}
	copy(g.Extra, extra)
}

// TotalD returns ∫D, which is zero by construction (a test oracle).
func (g *Grid) TotalD() float64 {
	var s float64
	for _, v := range g.D {
		s += v
	}
	return s
}

// Overflow returns Σ max(0, Demand−Supply) / Σ Demand, a normalized measure
// of how much area still sits in over-dense bins.
func (g *Grid) Overflow() float64 {
	var over, total float64
	for i := range g.D {
		if g.D[i] > 0 {
			over += g.D[i]
		}
		total += g.Demand[i]
	}
	if total == 0 {
		return 0
	}
	return over / total
}

// LargestEmptySquare returns the area (layout units²) of the largest
// axis-aligned square of empty bins, the paper's stopping criterion
// quantity (§4.2). A bin is empty when its demand is below emptyFrac of
// the average supply.
func (g *Grid) LargestEmptySquare(emptyFrac float64) float64 {
	best := 0 // side length in bins
	prev := make([]int, g.NX)
	cur := make([]int, g.NX)
	for iy := 0; iy < g.NY; iy++ {
		for ix := 0; ix < g.NX; ix++ {
			i := g.Idx(ix, iy)
			empty := g.Demand[i] < emptyFrac*g.Supply[i]
			if !empty {
				cur[ix] = 0
				continue
			}
			if ix == 0 || iy == 0 {
				cur[ix] = 1
			} else {
				cur[ix] = 1 + min3(cur[ix-1], prev[ix], prev[ix-1])
			}
			if cur[ix] > best {
				best = cur[ix]
			}
		}
		prev, cur = cur, prev
	}
	side := float64(best)
	return side * g.BinW * side * g.BinH
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
