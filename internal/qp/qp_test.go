package qp

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/netgen"
	"repro/internal/netlist"
	"repro/internal/sparse"
)

// chain builds pad(0,0) — a — b — pad(10,0).
func chain(t *testing.T) *netlist.Netlist {
	t.Helper()
	b := netlist.NewBuilder("chain", geom.NewRegion(1, 1, 10))
	b.AddPad("p0", geom.Point{X: 0, Y: 0.5})
	b.AddPad("p1", geom.Point{X: 10, Y: 0.5})
	b.AddCell("a", 1, 1)
	b.AddCell("b", 1, 1)
	b.Connect("n0", "p0", "a")
	b.Connect("n1", "a", "b")
	b.Connect("n2", "b", "p1")
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

func TestChainEquilibrium(t *testing.T) {
	nl := chain(t)
	s := Build(nl, Options{})
	if s.N() != 2 {
		t.Fatalf("N = %d", s.N())
	}
	if _, err := s.Solve(nil, sparse.CGOptions{Tol: 1e-12}); err != nil {
		t.Fatal(err)
	}
	// Equal springs: equilibrium at thirds of the span (anchor is
	// negligible at 1e-6).
	if got := nl.Cells[2].Pos.X; math.Abs(got-10.0/3) > 1e-3 {
		t.Errorf("a.x = %v, want %v", got, 10.0/3)
	}
	if got := nl.Cells[3].Pos.X; math.Abs(got-20.0/3) > 1e-3 {
		t.Errorf("b.x = %v, want %v", got, 20.0/3)
	}
	if got := nl.Cells[2].Pos.Y; math.Abs(got-0.5) > 1e-3 {
		t.Errorf("a.y = %v, want 0.5", got)
	}
}

func TestSolveMinimizesQuadraticWL(t *testing.T) {
	nl := netgen.Generate(netgen.Config{Name: "q", Cells: 120, Nets: 150, Rows: 6, Seed: 11})
	netgen.ScatterRandom(nl, 3)
	before := nl.QuadraticWL()
	s := Build(nl, Options{})
	if _, err := s.Solve(nil, sparse.CGOptions{}); err != nil {
		t.Fatal(err)
	}
	after := nl.QuadraticWL()
	if after >= before {
		t.Errorf("quadratic WL rose: %v -> %v", before, after)
	}
	// The solution is a global optimum: any perturbation increases it.
	perturbed := nl.Clone()
	for i := range perturbed.Cells {
		if !perturbed.Cells[i].Fixed {
			perturbed.Cells[i].Pos.X += 0.1
			perturbed.Cells[i].Pos.Y -= 0.07
			break
		}
	}
	if perturbed.QuadraticWL() < after-1e-9 {
		t.Error("perturbation decreased the objective; not an optimum")
	}
}

func TestMatrixProperties(t *testing.T) {
	nl := netgen.Generate(netgen.Config{Name: "m", Cells: 200, Nets: 260, Rows: 8, Seed: 12})
	s := Build(nl, Options{})
	m := s.Matrix()
	if !m.IsSymmetric(1e-12) {
		t.Error("C not symmetric")
	}
	if !m.RowDiagonallyDominant(1e-9) {
		t.Error("C not diagonally dominant")
	}
	stars := 0
	for ni := range nl.Nets {
		if len(nl.Nets[ni].Pins) >= 4 {
			stars++
		}
	}
	if m.N() != nl.NumMovable()+stars {
		t.Errorf("dim %d != movable %d + star nets %d", m.N(), nl.NumMovable(), stars)
	}
}

func TestFixedCellsExcluded(t *testing.T) {
	nl := chain(t)
	s := Build(nl, Options{})
	if s.VarOf[0] != -1 || s.VarOf[1] != -1 {
		t.Error("pads got variables")
	}
	if s.VarOf[2] < 0 || s.VarOf[3] < 0 {
		t.Error("movable cells lack variables")
	}
	padPos := nl.Cells[0].Pos
	if _, err := s.Solve(nil, sparse.CGOptions{}); err != nil {
		t.Fatal(err)
	}
	if nl.Cells[0].Pos != padPos {
		t.Error("solve moved a fixed cell")
	}
}

func TestAdditionalForceShiftsEquilibrium(t *testing.T) {
	nl := chain(t)
	s := Build(nl, Options{})
	if _, err := s.Solve(nil, sparse.CGOptions{Tol: 1e-12}); err != nil {
		t.Fatal(err)
	}
	base := nl.Cells[2].Pos
	forces := make([]geom.Point, len(nl.Cells))
	forces[2] = geom.Point{X: 0.5, Y: 0.25}
	if _, err := s.Solve(forces, sparse.CGOptions{Tol: 1e-12}); err != nil {
		t.Fatal(err)
	}
	got := nl.Cells[2].Pos
	if got.X <= base.X {
		t.Errorf("+x force moved cell from %v to %v", base, got)
	}
	if got.Y <= base.Y {
		t.Errorf("+y force did not raise cell: %v -> %v", base, got)
	}
}

func TestForceSolutionSpaceUnrestricted(t *testing.T) {
	// §2.2: any placement satisfies eq. 3 for a suitable e. Verify by
	// picking a target placement, computing e = −(C·p + d), and solving.
	nl := chain(t)
	s := Build(nl, Options{})
	target := []geom.Point{{X: 2, Y: 0.2}, {X: 9, Y: 0.9}}
	// e must equal C·p + d at the target for equilibrium; our Solve takes
	// f with C·p = −d + f, so f = C·p + d.
	n := s.N()
	px := []float64{target[0].X, target[1].X}
	py := []float64{target[0].Y, target[1].Y}
	fx := make([]float64, n)
	fy := make([]float64, n)
	s.C.MulVec(fx, px)
	s.C.MulVec(fy, py)
	forces := make([]geom.Point, len(nl.Cells))
	for vi, ci := range s.CellOf {
		forces[ci] = geom.Point{X: fx[vi] + s.Dx[vi], Y: fy[vi] + s.Dy[vi]}
	}
	if _, err := s.Solve(forces, sparse.CGOptions{Tol: 1e-12}); err != nil {
		t.Fatal(err)
	}
	for vi, ci := range s.CellOf {
		if nl.Cells[ci].Pos.Dist(target[vi]) > 1e-4 {
			t.Errorf("cell %d at %v, want %v", ci, nl.Cells[ci].Pos, target[vi])
		}
	}
}

func TestPinOffsetsShiftSolution(t *testing.T) {
	// One movable cell between two pads, with an offset pin toward one pad:
	// the cell body must shift to compensate.
	b := netlist.NewBuilder("off", geom.NewRegion(1, 1, 10))
	b.AddPad("p0", geom.Point{X: 0, Y: 0.5})
	b.AddPad("p1", geom.Point{X: 10, Y: 0.5})
	b.AddCell("a", 2, 1)
	ia := b.Cell("a")
	b.AddNet("n0", []netlist.Pin{{Cell: 0, Dir: netlist.Output}, {Cell: ia, Offset: geom.Point{X: -1, Y: 0}, Dir: netlist.Input}})
	b.AddNet("n1", []netlist.Pin{{Cell: ia, Offset: geom.Point{X: 1, Y: 0}, Dir: netlist.Output}, {Cell: 1, Dir: netlist.Input}})
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := Build(nl, Options{})
	if _, err := s.Solve(nil, sparse.CGOptions{Tol: 1e-12}); err != nil {
		t.Fatal(err)
	}
	// Symmetric: center lands mid-span with both pin wires equal length.
	if got := nl.Cells[2].Pos.X; math.Abs(got-5) > 1e-3 {
		t.Errorf("center = %v, want 5", got)
	}

	// Now make the left net heavier: cell shifts left, and the pin offset
	// keeps the effective wire shorter than body-center distance.
	nl.Nets[0].Weight = 4
	s = Build(nl, Options{})
	if _, err := s.Solve(nil, sparse.CGOptions{Tol: 1e-12}); err != nil {
		t.Fatal(err)
	}
	if got := nl.Cells[2].Pos.X; got >= 5 {
		t.Errorf("weighted solve did not shift left: %v", got)
	}
}

func TestLinearizeApproximatesLinearObjective(t *testing.T) {
	// With linearization, a star of one cell pulled by three pads should
	// move toward the median rather than the mean.
	b := netlist.NewBuilder("lin", geom.Region{Outline: geom.NewRect(0, 0, 30, 30)})
	b.AddPad("p0", geom.Point{X: 0, Y: 15})
	b.AddPad("p1", geom.Point{X: 1, Y: 15})
	b.AddPad("p2", geom.Point{X: 30, Y: 15})
	b.AddCell("a", 1, 1)
	b.Connect("n0", "p0", "a")
	b.Connect("n1", "p1", "a")
	b.Connect("n2", "p2", "a")
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Quadratic solution: mean ≈ (0+1+30)/3 ≈ 10.33.
	s := Build(nl, Options{})
	if _, err := s.Solve(nil, sparse.CGOptions{Tol: 1e-12}); err != nil {
		t.Fatal(err)
	}
	quad := nl.Cells[3].Pos.X

	// Iterated linearized solves drift toward the median (x≈1).
	for it := 0; it < 15; it++ {
		s = Build(nl, Options{Linearize: true, MinDist: 0.1})
		if _, err := s.Solve(nil, sparse.CGOptions{Tol: 1e-12}); err != nil {
			t.Fatal(err)
		}
	}
	lin := nl.Cells[3].Pos.X
	if lin >= quad-1 {
		t.Errorf("linearized x = %v not clearly below quadratic %v", lin, quad)
	}
}

func TestEmptyAndDisconnected(t *testing.T) {
	// A netlist with no movable cells must solve trivially.
	b := netlist.NewBuilder("fixedonly", geom.NewRegion(1, 1, 10))
	b.AddPad("p0", geom.Point{X: 0, Y: 0})
	b.AddPad("p1", geom.Point{X: 10, Y: 0})
	b.Connect("n", "p0", "p1")
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := Build(nl, Options{})
	if _, err := s.Solve(nil, sparse.CGOptions{}); err != nil {
		t.Fatal(err)
	}

	// A floating component (no fixed connection) still solves thanks to
	// the anchor, landing at the region center.
	b2 := netlist.NewBuilder("float", geom.NewRegion(1, 1, 10))
	b2.AddCell("a", 1, 1)
	b2.AddCell("b", 1, 1)
	b2.Connect("n", "a", "b")
	nl2, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	s2 := Build(nl2, Options{})
	if _, err := s2.Solve(nil, sparse.CGOptions{Tol: 1e-12}); err != nil {
		t.Fatal(err)
	}
	c := nl2.Region.Outline.Center()
	if nl2.Cells[0].Pos.Dist(c) > 1e-3 {
		t.Errorf("floating cells at %v, want center %v", nl2.Cells[0].Pos, c)
	}
}

func TestWarmStartUsesCurrentPositions(t *testing.T) {
	nl := netgen.Generate(netgen.Config{Name: "w", Cells: 400, Nets: 520, Rows: 10, Seed: 13})
	s := Build(nl, Options{})
	if _, err := s.Solve(nil, sparse.CGOptions{}); err != nil {
		t.Fatal(err)
	}
	// Re-solving from the solution should converge almost immediately.
	res, err := s.Solve(nil, sparse.CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.X.Iterations > 3 || res.Y.Iterations > 3 {
		t.Errorf("warm re-solve took %d/%d iterations", res.X.Iterations, res.Y.Iterations)
	}
}

// TestSolvePairWallBoundsAxes: the pair's wall time covers both
// concurrent axis solves, so neither axis's own elapsed time exceeds it.
// This is why the placer reports the pair, not the axes, as its solve
// phase.
func TestSolvePairWallBoundsAxes(t *testing.T) {
	nl := netgen.Generate(netgen.Config{Name: "pair", Cells: 400, Nets: 520, Rows: 8, Seed: 12})
	netgen.ScatterRandom(nl, 4)
	forces := make([]geom.Point, len(nl.Cells))
	for i := range forces {
		forces[i] = geom.Point{X: float64(i%7) - 3, Y: float64(i%5) - 2}
	}
	s := Build(nl, Options{})
	for _, solve := range []func() (SolveResult, error){
		func() (SolveResult, error) { return s.Solve(nil, sparse.CGOptions{}) },
		func() (SolveResult, error) { return s.SolveDelta(forces, sparse.CGOptions{}) },
	} {
		res, err := solve()
		if err != nil {
			t.Fatal(err)
		}
		if res.PairWall <= 0 || res.X.Elapsed <= 0 || res.Y.Elapsed <= 0 {
			t.Fatalf("unmeasured solve: pair %v, x %v, y %v", res.PairWall, res.X.Elapsed, res.Y.Elapsed)
		}
		if res.X.Elapsed > res.PairWall || res.Y.Elapsed > res.PairWall {
			t.Errorf("axis solve exceeds the pair wall: x %v, y %v, pair %v", res.X.Elapsed, res.Y.Elapsed, res.PairWall)
		}
	}
}
