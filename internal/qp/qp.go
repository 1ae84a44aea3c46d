// Package qp assembles and solves the paper's quadratic placement system
// (§2): the clique net model yields a symmetric positive-definite matrix C
// and vectors d (x and y parts), and additional forces e extend the
// equilibrium condition to C·p + d + e = 0 (eq. 3). The net-weight
// linearization of [14] (Sigl/Doll/Johannes, DAC'91) is applied optionally.
//
// Nets of starMinPins or more pins enter as a star with a free center: one
// extra variable per net, appended after the cell variables, tied to each
// pin by a spoke. Eliminating the center (a Schur complement) gives back
// the clique exactly, so the cell solution is the clique model's, with
// O(k) instead of O(k²) matrix entries per net.
package qp

import (
	"fmt"
	"time"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/obsv"
	"repro/internal/par"
	"repro/internal/sparse"
)

// Options controls system assembly.
type Options struct {
	// Linearize divides each spring weight by a current length (clamped
	// below by minDist), so successive solves approximate a linear
	// wire-length objective [14]: a clique edge by its pin-to-pin
	// distance, a star net's spokes by the mean distance of its pins to
	// their centroid.
	Linearize bool
}

// minDist is the linearization distance clamp: 1 layout unit (one row
// height).
const minDist = 1

// anchorScale sets the anchor spring that ties every movable cell to the
// region center, so components with no fixed connection still have a
// unique solution: each anchor weighs anchorScale·(W/n + 1), where W is
// the summed clique weight of all nets and n the number of movable cells.
const anchorScale = 1e-4

// starMinPins is the pin count from which a net is assembled as a star
// with a free center instead of a clique. At 4 pins the star's 4 spokes
// (plus the center's diagonal) already undercut the clique's 6 edges; 2-
// and 3-pin nets stay cliques, which need no extra variable.
const starMinPins = 4

// System is the assembled placement problem for one netlist. Its unknowns
// are the movable cells, in netlist order, followed by one center per star
// net, in net order.
type System struct {
	nl *netlist.Netlist
	// VarOf maps cell index → variable index, −1 for fixed cells.
	VarOf []int
	// CellOf maps cell variable index → cell index. Center variables
	// follow the cell variables and have no entry.
	CellOf []int
	// centerNet maps center j (variable len(CellOf)+j) → its net.
	centerNet []int

	C      *sparse.CSR
	Dx, Dy []float64

	// bx/by are SolveDeltaFrom's right-hand-side scratch and ax/ay the
	// per-axis solve tasks with their CG work vectors, reused across
	// transformations so the steady-state solve allocates nothing. The
	// concurrent axis solves each own one workspace and share only C and
	// the read-only factor.
	bx, by []float64
	ax, ay axisSolve
	// stiff backs CellStiffness's result.
	stiff []float64

	// chol caches the IC0 preconditioner across the solves of one
	// assembly: the pattern is built once per System (it is fixed by C's
	// sparsity), the numeric factor is recomputed lazily after each
	// refill, and both axis solves share it read-only. cholBroken
	// remembers a pivot breakdown for the current values, so the
	// Jacobi fallback is decided once per assembly, not per solve.
	chol       *sparse.IC0Factor
	cholDirty  bool
	cholBroken bool

	opts Options
}

// Build assembles the system from the netlist's current state (weights,
// and — when linearizing — current positions): the first assembly of a
// fresh Assembler. Iterative callers that rebuild the same netlist
// repeatedly should hold an Assembler instead, which keeps the sparsity
// pattern and storage between assemblies.
func Build(nl *netlist.Netlist, opts Options) *System {
	return NewAssembler(nl, opts).Assemble()
}

// newSkeleton allocates the structural half of a system: the variable
// maps and the d vectors. Valid until the netlist's cell, net or
// fixed-flag set changes.
func newSkeleton(nl *netlist.Netlist, opts Options) *System {
	s := &System{nl: nl, opts: opts}
	s.VarOf = make([]int, len(nl.Cells))
	for i := range nl.Cells {
		if nl.Cells[i].Fixed {
			s.VarOf[i] = -1
		} else {
			s.VarOf[i] = len(s.CellOf)
			s.CellOf = append(s.CellOf, i)
		}
	}
	for ni := range nl.Nets {
		if len(nl.Nets[ni].Pins) >= starMinPins {
			s.centerNet = append(s.centerNet, ni)
		}
	}
	n := s.N()
	s.Dx = make([]float64, n)
	s.Dy = make([]float64, n)
	return s
}

// centroid returns the mean position of net ni's pins.
func (s *System) centroid(ni int) geom.Point {
	pins := s.nl.Nets[ni].Pins
	var c geom.Point
	for _, p := range pins {
		c = c.Add(s.nl.PinPos(p))
	}
	return c.Scale(1 / float64(len(pins)))
}

// N returns the number of unknowns per axis: the movable cells followed
// by the star centers.
func (s *System) N() int { return len(s.CellOf) + len(s.centerNet) }

// Matrix exposes the assembled matrix C (shared by the x and y systems).
func (s *System) Matrix() *sparse.CSR { return s.C }

// CellStiffness returns, per cell variable, the diagonal of C reduced to
// the cells: each cell's diagonal less C_ic²/C_cc for every star center c
// on its row. Centers couple only to cells, so this is exactly the
// diagonal of the Schur complement, the clique model's cell diagonal —
// the spring constant a force on that cell works against.
//
// The slice is owned by the system and overwritten by the next call.
func (s *System) CellStiffness() []float64 {
	if len(s.stiff) != s.N() {
		s.stiff = make([]float64, s.N())
	}
	d := s.stiff
	s.C.DiagInto(d)
	nc := len(s.CellOf)
	for i := 0; i < nc; i++ {
		cols, vals := s.C.Row(i)
		// Columns are sorted and centers follow the cells, so they end
		// the row.
		for k := len(cols) - 1; k >= 0 && cols[k] >= nc; k-- {
			d[i] -= vals[k] * vals[k] / d[cols[k]]
		}
	}
	return d[:nc]
}

// SolveResult reports both axis solves.
type SolveResult struct {
	X, Y sparse.CGResult
	// PrecondWall is the wall time of preparing the shared
	// preconditioner before the pair: the IC0 refactor after a fresh
	// assembly, nothing for a factor already brought up to date by
	// Factor.
	PrecondWall time.Duration
	// Fallback is set when the IC0 factorization broke down, so both
	// axes were solved with Jacobi.
	Fallback bool
	// PairWall is the wall time of the concurrent x/y solve pair: the
	// axes overlap, so it is the solve time that bounds the step time.
	PairWall time.Duration
}

// Solve computes the equilibrium C·p + d + e = 0 and writes the resulting
// positions into the netlist. forces is the per-cell additional force
// (indexed like nl.Cells; fixed entries ignored); nil means no additional
// force. Current positions, and for each star center its pins' centroid,
// are the CG warm start.
func (s *System) Solve(forces []geom.Point, opt sparse.CGOptions) (SolveResult, error) {
	nl := s.nl
	n := s.N()
	if n == 0 {
		return SolveResult{}, nil
	}
	bx := make([]float64, n)
	by := make([]float64, n)
	x := make([]float64, n)
	y := make([]float64, n)
	for vi := range bx {
		// A positive force f on a cell shifts its equilibrium along f:
		// row i of C·p = −d + f.
		bx[vi] = -s.Dx[vi]
		by[vi] = -s.Dy[vi]
	}
	for vi, ci := range s.CellOf {
		if forces != nil {
			bx[vi] += forces[ci].X
			by[vi] += forces[ci].Y
		}
		x[vi] = nl.Cells[ci].Pos.X
		y[vi] = nl.Cells[ci].Pos.Y
	}
	for j, ni := range s.centerNet {
		c := s.centroid(ni)
		x[len(s.CellOf)+j] = c.X
		y[len(s.CellOf)+j] = c.Y
	}
	var out SolveResult
	errX, errY := s.solveBoth(x, bx, y, by, opt, &out)
	for vi, ci := range s.CellOf {
		nl.Cells[ci].Pos = geom.Point{X: x[vi], Y: y[vi]}
	}
	if errX != nil {
		return out, fmt.Errorf("qp: x solve: %w", errX)
	}
	if errY != nil {
		return out, fmt.Errorf("qp: y solve: %w", errY)
	}
	return out, nil
}

// axisSolve is one axis's CG solve as a par.Task: the system is bound
// when it is forked, the result read back after the join.
type axisSolve struct {
	c    *sparse.CSR
	x, b []float64
	opt  sparse.CGOptions
	work sparse.CGWork
	res  sparse.CGResult
	err  error
}

func (t *axisSolve) Run() { t.res, t.err = t.work.Solve(t.c, t.x, t.b, t.opt) }

// solveBoth runs the two independent axis solves concurrently, one on each
// par.Fork lane, each in its own CG workspace; C and the prepared
// preconditioner factor are shared read-only.
func (s *System) solveBoth(x, bx, y, by []float64, opt sparse.CGOptions, out *SolveResult) (errX, errY error) {
	start := obsv.StartTimer()
	out.Fallback = s.prepPrecond(&opt)
	out.PrecondWall = start.Elapsed()
	s.ax.c, s.ax.x, s.ax.b, s.ax.opt = s.C, x, bx, opt
	s.ay.c, s.ay.x, s.ay.b, s.ay.opt = s.C, y, by, opt
	start = obsv.StartTimer()
	par.Fork(&s.ax, &s.ay)
	out.PairWall = start.Elapsed()
	out.X, out.Y = s.ax.res, s.ay.res
	return s.ax.err, s.ay.err
}

// Factor brings the cached IC0 factor up to date with the assembly:
// it builds the pattern on first use and refactors it if the values
// changed since the last factoring, and does nothing for an up-to-date
// factor. It reports a pivot breakdown, after which this assembly's
// solves run with Jacobi. The solves factor a stale factor themselves;
// calling Factor first lets a caller run the refactor beside other work,
// as the placement step runs it beside the field solve.
func (s *System) Factor() (fallback bool) {
	if s.chol == nil {
		s.chol = sparse.NewIC0Pattern(s.C)
		s.cholDirty = true
	}
	if s.cholDirty {
		s.cholBroken = !s.chol.Refactor(s.C)
		s.cholDirty = false
	}
	return s.cholBroken
}

// prepPrecond points opt at the cached IC0 factor, factoring it first if
// needed (see Factor). A pivot breakdown leaves opt without a factor, so
// this assembly's solves run with Jacobi, reported as fallback. Factoring
// once here keeps the concurrent axis solves from each factoring, and
// keeps repeated solves of one assembly at zero extra cost.
func (s *System) prepPrecond(opt *sparse.CGOptions) (fallback bool) {
	opt.Factor = nil
	if s.Factor() {
		return true
	}
	opt.Factor = s.chol
	return false
}

// SolveDelta solves C·δ = f for the displacement response to the force
// increment f and moves every movable cell by its δ. Starting each
// placement transformation from the previous equilibrium, this is exactly
// the paper's constant-force extension (eq. 3) — p_new solves
// C·p + d + e = 0 with e grown by −f — but conditioned on the increment, so
// small forces still move cells even when the absolute system is large.
func (s *System) SolveDelta(forces []geom.Point, opt sparse.CGOptions) (SolveResult, error) {
	n := s.N()
	return s.SolveDeltaFrom(forces, make([]float64, n), make([]float64, n), opt)
}

// SolveDeltaFrom is SolveDelta with an explicit CG starting guess: dx0 and
// dy0 (length N, star centers included) carry a prediction of the
// displacement response on entry and the solved δ on return. Placement
// transformations move cells slowly (§4.2), so the previous
// transformation's response is a strong guess that saves CG iterations;
// SolveDelta is the zero-guess special case. No force acts on a center.
func (s *System) SolveDeltaFrom(forces []geom.Point, dx0, dy0 []float64, opt sparse.CGOptions) (SolveResult, error) {
	nl := s.nl
	n := s.N()
	if n == 0 {
		return SolveResult{}, nil
	}
	if len(dx0) != n || len(dy0) != n {
		panic("qp: SolveDeltaFrom guess length mismatch")
	}
	if len(s.bx) != n {
		s.bx = make([]float64, n)
		s.by = make([]float64, n)
	}
	bx, by := s.bx, s.by
	clear(bx)
	clear(by)
	if forces != nil {
		for vi, ci := range s.CellOf {
			bx[vi] = forces[ci].X
			by[vi] = forces[ci].Y
		}
	}
	var out SolveResult
	errX, errY := s.solveBoth(dx0, bx, dy0, by, opt, &out)
	for vi, ci := range s.CellOf {
		nl.Cells[ci].Pos.X += dx0[vi]
		nl.Cells[ci].Pos.Y += dy0[vi]
	}
	if errX != nil {
		return out, fmt.Errorf("qp: x delta solve: %w", errX)
	}
	if errY != nil {
		return out, fmt.Errorf("qp: y delta solve: %w", errY)
	}
	return out, nil
}
