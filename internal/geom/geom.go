// Package geom provides the geometric primitives shared by every placement
// subsystem: points, rectangles, placement rows and the placement region.
// All coordinates are float64 in abstract layout units; one unit is one
// standard-cell row height unless a netlist says otherwise.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p minus q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Dist2 returns the squared Euclidean distance between p and q.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Norm returns the Euclidean length of p treated as a vector.
func (p Point) Norm() float64 { return math.Sqrt(p.X*p.X + p.Y*p.Y) }

func (p Point) String() string { return fmt.Sprintf("(%.4g,%.4g)", p.X, p.Y) }

// Rect is an axis-aligned rectangle with Lo at the lower-left corner and
// Hi at the upper-right corner. A Rect with Hi < Lo in either axis is empty.
type Rect struct {
	Lo, Hi Point
}

// NewRect builds a rectangle from any two opposite corners.
func NewRect(x0, y0, x1, y1 float64) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{Point{x0, y0}, Point{x1, y1}}
}

// RectWH builds a rectangle from a lower-left corner and a width/height.
func RectWH(x, y, w, h float64) Rect {
	return Rect{Point{x, y}, Point{x + w, y + h}}
}

// RectCenteredAt builds a w×h rectangle centered on c.
func RectCenteredAt(c Point, w, h float64) Rect {
	return Rect{Point{c.X - w/2, c.Y - h/2}, Point{c.X + w/2, c.Y + h/2}}
}

// W returns the rectangle width (0 when empty).
func (r Rect) W() float64 { return max(0, r.Hi.X-r.Lo.X) }

// H returns the rectangle height (0 when empty).
func (r Rect) H() float64 { return max(0, r.Hi.Y-r.Lo.Y) }

// Area returns the rectangle area (0 when empty).
func (r Rect) Area() float64 { return r.W() * r.H() }

// Empty reports whether the rectangle has no interior.
func (r Rect) Empty() bool { return r.Hi.X <= r.Lo.X || r.Hi.Y <= r.Lo.Y }

// Center returns the rectangle's center point.
func (r Rect) Center() Point {
	return Point{(r.Lo.X + r.Hi.X) / 2, (r.Lo.Y + r.Hi.Y) / 2}
}

// HalfPerimeter returns W+H, the standard wire-length measure of a bounding
// box.
func (r Rect) HalfPerimeter() float64 { return r.W() + r.H() }

// Contains reports whether p lies inside r (inclusive of the boundary).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Lo.X && p.X <= r.Hi.X && p.Y >= r.Lo.Y && p.Y <= r.Hi.Y
}

// ContainsRect reports whether s lies fully inside r.
func (r Rect) ContainsRect(s Rect) bool {
	return s.Lo.X >= r.Lo.X && s.Hi.X <= r.Hi.X && s.Lo.Y >= r.Lo.Y && s.Hi.Y <= r.Hi.Y
}

// Intersect returns the intersection of r and s (possibly empty).
func (r Rect) Intersect(s Rect) Rect {
	return Rect{
		Point{max(r.Lo.X, s.Lo.X), max(r.Lo.Y, s.Lo.Y)},
		Point{min(r.Hi.X, s.Hi.X), min(r.Hi.Y, s.Hi.Y)},
	}
}

// Overlap returns the area of the intersection of r and s.
func (r Rect) Overlap(s Rect) float64 { return r.Intersect(s).Area() }

// Expand returns r grown by m on every side (shrunk when m is negative).
func (r Rect) Expand(m float64) Rect {
	return Rect{Point{r.Lo.X - m, r.Lo.Y - m}, Point{r.Hi.X + m, r.Hi.Y + m}}
}

// ClampPoint returns the point in r closest to p.
func (r Rect) ClampPoint(p Point) Point {
	return Point{clamp(p.X, r.Lo.X, r.Hi.X), clamp(p.Y, r.Lo.Y, r.Hi.Y)}
}

// ClampCenter returns the center position closest to c such that a w×h
// rectangle centered there stays inside r. Oversized rectangles are centered.
func (r Rect) ClampCenter(c Point, w, h float64) Point {
	lox, hix := r.Lo.X+w/2, r.Hi.X-w/2
	loy, hiy := r.Lo.Y+h/2, r.Hi.Y-h/2
	out := c
	if lox > hix {
		out.X = (r.Lo.X + r.Hi.X) / 2
	} else {
		out.X = clamp(c.X, lox, hix)
	}
	if loy > hiy {
		out.Y = (r.Lo.Y + r.Hi.Y) / 2
	} else {
		out.Y = clamp(c.Y, loy, hiy)
	}
	return out
}

func (r Rect) String() string {
	return fmt.Sprintf("[%s %s]", r.Lo, r.Hi)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// BBox accumulates a bounding box over a stream of points.
type BBox struct {
	r     Rect
	count int
}

// Add extends the box to cover p.
func (b *BBox) Add(p Point) {
	if b.count == 0 {
		b.r = Rect{p, p}
	} else {
		if p.X < b.r.Lo.X {
			b.r.Lo.X = p.X
		}
		if p.Y < b.r.Lo.Y {
			b.r.Lo.Y = p.Y
		}
		if p.X > b.r.Hi.X {
			b.r.Hi.X = p.X
		}
		if p.Y > b.r.Hi.Y {
			b.r.Hi.Y = p.Y
		}
	}
	b.count++
}

// Rect returns the accumulated box; the zero Rect when no point was added.
func (b *BBox) Rect() Rect { return b.r }

// Count returns how many points were added.
func (b *BBox) Count() int { return b.count }

// Row is one standard-cell row of the placement region.
type Row struct {
	Y      float64 // bottom edge of the row
	Height float64 // row (cell) height
	X0, X1 float64 // usable horizontal extent
}

// Rect returns the row footprint.
func (r Row) Rect() Rect { return NewRect(r.X0, r.Y, r.X1, r.Y+r.Height) }

// Capacity returns the total placeable width of the row.
func (r Row) Capacity() float64 { return r.X1 - r.X0 }

// Region is the placement area: an outline plus its standard-cell rows.
// Floorplanning-style designs may have zero rows and use only the outline.
type Region struct {
	Outline Rect
	Rows    []Row
}

// NewRegion builds a region of n equal rows of the given height and width,
// with the outline tightly wrapping the rows. n must be >= 1.
func NewRegion(nRows int, rowHeight, width float64) Region {
	rows := make([]Row, nRows)
	for i := range rows {
		rows[i] = Row{Y: float64(i) * rowHeight, Height: rowHeight, X0: 0, X1: width}
	}
	return Region{
		Outline: NewRect(0, 0, width, float64(nRows)*rowHeight),
		Rows:    rows,
	}
}

// W returns the outline width.
func (g Region) W() float64 { return g.Outline.W() }

// H returns the outline height.
func (g Region) H() float64 { return g.Outline.H() }

// Area returns the outline area.
func (g Region) Area() float64 { return g.Outline.Area() }

// RowAt returns the index of the row whose vertical span contains y, or the
// nearest row when y is outside all rows. It returns -1 for a row-less
// region.
func (g Region) RowAt(y float64) int {
	if len(g.Rows) == 0 {
		return -1
	}
	best, bestD := 0, math.Inf(1)
	for i, r := range g.Rows {
		if y >= r.Y && y < r.Y+r.Height {
			return i
		}
		d := min(math.Abs(y-r.Y), math.Abs(y-(r.Y+r.Height)))
		if d < bestD {
			best, bestD = i, d
		}
	}
	return best
}
