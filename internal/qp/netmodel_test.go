package qp

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/netgen"
	"repro/internal/netlist"
	"repro/internal/sparse"
)

func starCircuit(t *testing.T) *netlist.Netlist {
	t.Helper()
	b := netlist.NewBuilder("star", geom.Region{Outline: geom.NewRect(0, 0, 20, 20)})
	b.AddPad("p0", geom.Point{X: 0, Y: 10})
	b.AddPad("p1", geom.Point{X: 20, Y: 10})
	for _, n := range []string{"a", "c", "d", "e"} {
		b.AddCell(n, 1, 1)
	}
	b.Connect("wide", "p0", "a", "c", "d", "e", "p1")
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

// cliqueReference assembles nl the way the paper writes it (§2.1): every
// net as a clique, over the cell variables of s only. A pair of a net with
// k ≥ starMinPins pins weighs w/k, divided when linearizing by the mean
// distance R of the net's pins to their centroid; smaller nets weigh w/k
// per pair divided by the pair's own distance. Eliminating the star
// centers of s must give exactly this system.
func cliqueReference(nl *netlist.Netlist, s *System, opts Options) (c *sparse.CSR, dx, dy []float64) {
	n := len(s.CellOf)
	b := sparse.NewBuilder(n)
	dx, dy = make([]float64, n), make([]float64, n)
	total := 0.0
	for ni := range nl.Nets {
		net := &nl.Nets[ni]
		k := len(net.Pins)
		var netR float64
		if k >= starMinPins {
			var centroid geom.Point
			for _, p := range net.Pins {
				centroid = centroid.Add(nl.PinPos(p))
			}
			centroid = centroid.Scale(1 / float64(k))
			for _, p := range net.Pins {
				netR += nl.PinPos(p).Dist(centroid) / float64(k)
			}
		}
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				pa, pb := net.Pins[i], net.Pins[j]
				w := net.Weight / float64(k)
				if opts.Linearize {
					d := netR
					if k < starMinPins {
						d = nl.PinPos(pa).Dist(nl.PinPos(pb))
					}
					w /= max(d, minDist)
				}
				total += w
				va, vb := s.VarOf[pa.Cell], s.VarOf[pb.Cell]
				switch {
				case va >= 0 && vb >= 0:
					b.Add(va, va, w)
					b.Add(vb, vb, w)
					b.AddSym(va, vb, -w)
					o := pa.Offset.Sub(pb.Offset)
					dx[va] += w * o.X
					dx[vb] -= w * o.X
					dy[va] += w * o.Y
					dy[vb] -= w * o.Y
				case va >= 0:
					o := pa.Offset.Sub(nl.PinPos(pb))
					b.Add(va, va, w)
					dx[va] += w * o.X
					dy[va] += w * o.Y
				case vb >= 0:
					o := pb.Offset.Sub(nl.PinPos(pa))
					b.Add(vb, vb, w)
					dx[vb] += w * o.X
					dy[vb] += w * o.Y
				}
			}
		}
	}
	anchor := 1e-4 * (total/float64(n) + 1)
	ctr := nl.Region.Outline.Center()
	for vi := 0; vi < n; vi++ {
		b.Add(vi, vi, anchor)
		dx[vi] -= anchor * ctr.X
		dy[vi] -= anchor * ctr.Y
	}
	return b.Build(), dx, dy
}

// offsetCircuit is a netgen circuit (fixed pads on the periphery) with
// scattered cells and non-zero pin offsets.
func offsetCircuit() *netlist.Netlist {
	nl := netgen.Generate(netgen.Config{Name: "fs", Cells: 300, Nets: 400, Rows: 8, Seed: 71})
	netgen.ScatterRandom(nl, 72)
	for ni := range nl.Nets {
		for pi := range nl.Nets[ni].Pins {
			if !nl.Cells[nl.Nets[ni].Pins[pi].Cell].Fixed {
				nl.Nets[ni].Pins[pi].Offset = geom.Point{X: 0.3 * float64(pi%3-1), Y: 0.2 * float64((ni+pi)%3-1)}
			}
		}
	}
	return nl
}

// maxRelDiff returns max |got−want| over max |want| across the cells.
func maxRelDiff(got, want []geom.Point) float64 {
	var scale, diff float64
	for ci := range want {
		scale = math.Max(scale, math.Max(math.Abs(want[ci].X), math.Abs(want[ci].Y)))
		diff = math.Max(diff, got[ci].Sub(want[ci]).Norm())
	}
	return diff / scale
}

// TestFreeStarMatchesClique: with the centers eliminated, the star system
// is the paper's clique. The cell responses of SolveDelta and the absolute
// equilibrium of Solve match an all-clique reference, with and without
// linearization, and the cell stiffness the force normalization divides by
// is the reference's diagonal.
func TestFreeStarMatchesClique(t *testing.T) {
	for _, opts := range []Options{{}, {Linearize: true}} {
		nl := offsetCircuit()
		s := Build(nl, opts)
		if len(s.centerNet) == 0 {
			t.Fatal("circuit has no star nets")
		}
		ref, rdx, rdy := cliqueReference(nl, s, opts)
		n := len(s.CellOf)

		stiff := s.CellStiffness()
		var got, want float64
		for vi, d := range ref.Diag() {
			if math.Abs(stiff[vi]-d) > 1e-9*d {
				t.Fatalf("linearize=%v: cell %d stiffness %g, clique diagonal %g", opts.Linearize, vi, stiff[vi], d)
			}
			got += stiff[vi]
			want += d
		}
		if math.Abs(got-want) > 1e-12*want {
			t.Errorf("linearize=%v: mean stiffness %g, clique mean diagonal %g", opts.Linearize, got/float64(n), want/float64(n))
		}

		// The displacement response to a force increment.
		forces := make([]geom.Point, len(nl.Cells))
		bx, by := make([]float64, n), make([]float64, n)
		for vi, ci := range s.CellOf {
			forces[ci] = geom.Point{X: float64(vi%7) - 3, Y: float64(vi%5) - 2}
			bx[vi], by[vi] = forces[ci].X, forces[ci].Y
		}
		cg := sparse.CGOptions{Tol: 1e-12}
		before := nl.Snapshot()
		if _, err := s.SolveDelta(forces, cg); err != nil {
			t.Fatal(err)
		}
		solveRef := func(bx, by []float64) []geom.Point {
			x, y := make([]float64, n), make([]float64, n)
			for _, ax := range []struct{ v, b []float64 }{{x, bx}, {y, by}} {
				if _, err := (&sparse.CGWork{}).Solve(ref, ax.v, ax.b, cg); err != nil {
					t.Fatal(err)
				}
			}
			out := make([]geom.Point, len(nl.Cells))
			for vi, ci := range s.CellOf {
				out[ci] = geom.Point{X: x[vi], Y: y[vi]}
			}
			return out
		}
		wantDelta := solveRef(bx, by)
		gotDelta := make([]geom.Point, len(nl.Cells))
		for _, ci := range s.CellOf {
			gotDelta[ci] = nl.Cells[ci].Pos.Sub(before[ci])
		}
		if d := maxRelDiff(gotDelta, wantDelta); d > 1e-8 {
			t.Errorf("linearize=%v: SolveDelta differs from the clique by %.3g relative", opts.Linearize, d)
		}

		// The absolute equilibrium C·p + d = 0: pads and offsets enter
		// through d.
		for vi := range rdx {
			rdx[vi], rdy[vi] = -rdx[vi], -rdy[vi]
		}
		wantPos := solveRef(rdx, rdy)
		if _, err := s.Solve(nil, cg); err != nil {
			t.Fatal(err)
		}
		gotPos := make([]geom.Point, len(nl.Cells))
		for _, ci := range s.CellOf {
			gotPos[ci] = nl.Cells[ci].Pos
		}
		if d := maxRelDiff(gotPos, wantPos); d > 1e-8 {
			t.Errorf("linearize=%v: Solve differs from the clique by %.3g relative", opts.Linearize, d)
		}
	}
}

// TestStarModelSolves: a star net's center is an extra unknown, and the
// system stays symmetric and IC0-factorable, also for a net of weight zero,
// whose center is decoupled from the cells.
func TestStarModelSolves(t *testing.T) {
	for _, weight := range []float64{1, 0} {
		nl := starCircuit(t)
		nl.Nets[0].Weight = weight
		sys := Build(nl, Options{})
		if sys.N() != 5 {
			t.Fatalf("N = %d, want 4 cells + 1 center", sys.N())
		}
		if !sys.Matrix().IsSymmetric(1e-12) {
			t.Error("star matrix asymmetric")
		}
		res, err := sys.Solve(nil, sparse.CGOptions{Tol: 1e-10})
		if err != nil {
			t.Fatal(err)
		}
		if res.Fallback || res.X.Precond != sparse.IC0 {
			t.Errorf("weight %g: IC0 fell back to %v", weight, res.X.Precond)
		}
		// All movable cells pulled between the pads: x within the span.
		for i := 2; i < 6; i++ {
			x := nl.Cells[i].Pos.X
			if x < 0 || x > 20 {
				t.Errorf("weight %g: cell %d at x=%v", weight, i, x)
			}
		}
	}
}

func TestStarMatrixIsSparserThanClique(t *testing.T) {
	nl := netgen.Generate(netgen.Config{Name: "sp", Cells: 500, Nets: 600, Rows: 8, Seed: 121})
	s := Build(nl, Options{})
	ref, _, _ := cliqueReference(nl, s, Options{})
	if star, clique := s.Matrix().NNZ(), ref.NNZ(); star >= clique {
		t.Errorf("star NNZ %d not below clique NNZ %d", star, clique)
	}
}

// TestCenterSwitchesByDegree: nets of 2 and 3 pins stay cliques; from
// starMinPins pins on, a net gets a center variable.
func TestCenterSwitchesByDegree(t *testing.T) {
	for k := 2; k <= 6; k++ {
		b := netlist.NewBuilder("deg", geom.Region{Outline: geom.NewRect(0, 0, 20, 20)})
		b.AddPad("p", geom.Point{X: 0, Y: 10})
		pins := []string{"p"}
		for i := 1; i < k; i++ {
			name := string(rune('a' + i))
			b.AddCell(name, 1, 1)
			pins = append(pins, name)
		}
		b.Connect("n", pins...)
		nl, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		want := k - 1
		if k >= starMinPins {
			want++
		}
		if n := Build(nl, Options{}).N(); n != want {
			t.Errorf("%d-pin net: N = %d, want %d", k, n, want)
		}
	}
}

func TestStarAndCliqueAgreeAtEquilibrium(t *testing.T) {
	// For a symmetric configuration, the cells settle at the centroid of
	// the pads, in one solve: the center is a variable, not a fixed point
	// refreshed between solves.
	nl := starCircuit(t)
	if _, err := Build(nl, Options{}).Solve(nil, sparse.CGOptions{Tol: 1e-12}); err != nil {
		t.Fatal(err)
	}
	for i := 2; i < 6; i++ {
		if x := nl.Cells[i].Pos.X; math.Abs(x-10) > 1e-6 {
			t.Errorf("cell %d at x=%v, want 10", i, x)
		}
	}
}

func TestTwoPinNetsNeverUseStar(t *testing.T) {
	b := netlist.NewBuilder("two", geom.NewRegion(1, 1, 10))
	b.AddPad("p", geom.Point{X: 0, Y: 0.5})
	b.AddCell("a", 1, 1)
	b.Connect("n", "p", "a")
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := Build(nl, Options{})
	ref, dx, _ := cliqueReference(nl, s, Options{})
	if s.N() != 1 || s.Matrix().NNZ() != ref.NNZ() {
		t.Error("2-pin net should use the direct edge")
	}
	if math.Abs(s.Dx[0]-dx[0]) > 1e-12 {
		t.Error("2-pin d differs from the clique's")
	}
}
