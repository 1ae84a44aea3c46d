package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b)) }

func TestPointArithmetic(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -5}
	if got := p.Add(q); got != (Point{4, -3}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{-2, 7}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Errorf("Scale = %v", got)
	}
}

func TestPointDistances(t *testing.T) {
	p := Point{0, 0}
	q := Point{3, 4}
	if d := p.Dist(q); !almostEq(d, 5) {
		t.Errorf("Dist = %v, want 5", d)
	}
	if d := p.Dist2(q); !almostEq(d, 25) {
		t.Errorf("Dist2 = %v, want 25", d)
	}
	if n := q.Norm(); !almostEq(n, 5) {
		t.Errorf("Norm = %v, want 5", n)
	}
}

func TestNewRectNormalizesCorners(t *testing.T) {
	r := NewRect(5, 7, 1, 2)
	if r.Lo != (Point{1, 2}) || r.Hi != (Point{5, 7}) {
		t.Errorf("NewRect = %v", r)
	}
}

func TestRectBasics(t *testing.T) {
	r := RectWH(1, 2, 3, 4)
	if !almostEq(r.W(), 3) || !almostEq(r.H(), 4) {
		t.Errorf("W/H = %v/%v", r.W(), r.H())
	}
	if !almostEq(r.Area(), 12) {
		t.Errorf("Area = %v", r.Area())
	}
	if !almostEq(r.HalfPerimeter(), 7) {
		t.Errorf("HalfPerimeter = %v", r.HalfPerimeter())
	}
	if c := r.Center(); !almostEq(c.X, 2.5) || !almostEq(c.Y, 4) {
		t.Errorf("Center = %v", c)
	}
	if r.Empty() {
		t.Error("non-degenerate rect reported empty")
	}
}

func TestRectCenteredAt(t *testing.T) {
	r := RectCenteredAt(Point{5, 5}, 2, 4)
	if r.Lo != (Point{4, 3}) || r.Hi != (Point{6, 7}) {
		t.Errorf("RectCenteredAt = %v", r)
	}
}

func TestRectContains(t *testing.T) {
	r := NewRect(0, 0, 10, 10)
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{5, 5}, true},
		{Point{0, 0}, true},
		{Point{10, 10}, true},
		{Point{-0.1, 5}, false},
		{Point{5, 10.1}, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !r.ContainsRect(NewRect(1, 1, 9, 9)) {
		t.Error("ContainsRect inner failed")
	}
	if r.ContainsRect(NewRect(1, 1, 11, 9)) {
		t.Error("ContainsRect overflow should fail")
	}
}

func TestRectIntersect(t *testing.T) {
	a := NewRect(0, 0, 4, 4)
	b := NewRect(2, 2, 6, 6)
	got := a.Intersect(b)
	if got.Lo != (Point{2, 2}) || got.Hi != (Point{4, 4}) {
		t.Errorf("Intersect = %v", got)
	}
	if !almostEq(a.Overlap(b), 4) {
		t.Errorf("Overlap = %v", a.Overlap(b))
	}
	c := NewRect(10, 10, 12, 12)
	if !a.Intersect(c).Empty() {
		t.Error("disjoint Intersect not empty")
	}
	if a.Overlap(c) != 0 {
		t.Error("disjoint Overlap not zero")
	}
}

func TestRectExpand(t *testing.T) {
	r := NewRect(2, 2, 4, 4).Expand(1)
	if r.Lo != (Point{1, 1}) || r.Hi != (Point{5, 5}) {
		t.Errorf("Expand = %v", r)
	}
}

func TestClampPoint(t *testing.T) {
	r := NewRect(0, 0, 10, 10)
	if got := r.ClampPoint(Point{-5, 20}); got != (Point{0, 10}) {
		t.Errorf("ClampPoint = %v", got)
	}
	if got := r.ClampPoint(Point{5, 5}); got != (Point{5, 5}) {
		t.Errorf("interior point moved: %v", got)
	}
}

func TestClampCenterKeepsRectInside(t *testing.T) {
	r := NewRect(0, 0, 10, 10)
	c := r.ClampCenter(Point{0, 0}, 4, 2)
	if c != (Point{2, 1}) {
		t.Errorf("ClampCenter = %v", c)
	}
	// Oversized rect is centered.
	c = r.ClampCenter(Point{9, 9}, 20, 2)
	if !almostEq(c.X, 5) {
		t.Errorf("oversized ClampCenter.X = %v", c.X)
	}
}

func TestClampCenterProperty(t *testing.T) {
	region := NewRect(0, 0, 100, 50)
	f := func(x, y float64, wq, hq uint8) bool {
		w := float64(wq%100) + 0.5
		h := float64(hq%50) + 0.5
		c := region.ClampCenter(Point{x, y}, w, h)
		if w <= region.W() && h <= region.H() {
			return region.ContainsRect(RectCenteredAt(c, w, h).Expand(-1e-9))
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntersectCommutativeAndBounded(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh uint16) bool {
		a := RectWH(float64(ax%100), float64(ay%100), float64(aw%50), float64(ah%50))
		b := RectWH(float64(bx%100), float64(by%100), float64(bw%50), float64(bh%50))
		ov1, ov2 := a.Overlap(b), b.Overlap(a)
		return almostEq(ov1, ov2) && ov1 <= a.Area()+1e-9 && ov1 <= b.Area()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBBox(t *testing.T) {
	var b BBox
	if b.Count() != 0 {
		t.Fatal("fresh BBox count")
	}
	b.Add(Point{1, 1})
	b.Add(Point{-2, 3})
	b.Add(Point{0, -4})
	r := b.Rect()
	if r.Lo != (Point{-2, -4}) || r.Hi != (Point{1, 3}) {
		t.Errorf("BBox = %v", r)
	}
	if b.Count() != 3 {
		t.Errorf("Count = %d", b.Count())
	}
}

func TestBBoxSinglePointDegenerate(t *testing.T) {
	var b BBox
	b.Add(Point{5, 5})
	if hp := b.Rect().HalfPerimeter(); hp != 0 {
		t.Errorf("single-point HPWL = %v", hp)
	}
}

func TestNewRegion(t *testing.T) {
	g := NewRegion(10, 2, 50)
	if len(g.Rows) != 10 {
		t.Fatalf("rows = %d", len(g.Rows))
	}
	if !almostEq(g.W(), 50) || !almostEq(g.H(), 20) {
		t.Errorf("W/H = %v/%v", g.W(), g.H())
	}
	if !almostEq(g.Area(), 1000) {
		t.Errorf("Area = %v", g.Area())
	}
	if r := g.Rows[3]; !almostEq(r.Y, 6) || !almostEq(r.Capacity(), 50) {
		t.Errorf("row 3 = %+v", r)
	}
	if rr := g.Rows[3].Rect(); !almostEq(rr.Area(), 100) {
		t.Errorf("row rect = %v", rr)
	}
}

func TestRowAt(t *testing.T) {
	g := NewRegion(5, 2, 10)
	if i := g.RowAt(3); i != 1 {
		t.Errorf("RowAt(3) = %d", i)
	}
	if i := g.RowAt(-100); i != 0 {
		t.Errorf("RowAt(-100) = %d", i)
	}
	if i := g.RowAt(100); i != 4 {
		t.Errorf("RowAt(100) = %d", i)
	}
	empty := Region{Outline: NewRect(0, 0, 1, 1)}
	if i := empty.RowAt(0); i != -1 {
		t.Errorf("row-less RowAt = %d", i)
	}
}
