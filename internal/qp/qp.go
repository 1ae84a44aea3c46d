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
	// below by MinDist), so successive solves approximate a linear
	// wire-length objective [14]: a clique edge by its pin-to-pin
	// distance, a star net's spokes by the mean distance of its pins to
	// their centroid.
	Linearize bool
	// MinDist is the linearization distance clamp. Defaults to 1 layout
	// unit (one row height).
	MinDist float64
	// Anchor adds a tiny spring from every movable cell to the region
	// center so components with no fixed connection still have a unique
	// solution. Defaults to 1e-6 of the average connectivity.
	Anchor float64
}

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

	// bx/by are SolveDeltaFrom's right-hand-side scratch, reused across
	// transformations so the steady-state solve allocates nothing.
	bx, by []float64

	// chol caches the IC0 preconditioner across the solves of one
	// assembly: the pattern is built once per System (it is fixed by C's
	// sparsity), the numeric factor is recomputed lazily after each
	// assembleInto, and both axis solves share it read-only. cholBroken
	// remembers a pivot breakdown for the current values, so the
	// Jacobi fallback is decided once per assembly, not per solve.
	chol       *sparse.IC0Factor
	cholDirty  bool
	cholBroken bool

	opts Options
}

// Build assembles the system from the netlist's current state (weights,
// and — when linearizing — current positions). Iterative callers that
// rebuild the same netlist repeatedly should hold an Assembler instead,
// which caches the sparsity pattern and storage between assemblies.
func Build(nl *netlist.Netlist, opts Options) *System {
	s := newSkeleton(nl, normalize(opts))
	b := sparse.NewBuilder(s.N())
	s.assembleInto(b)
	s.C = b.Build()
	return s
}

// normalize fills Options defaults.
func normalize(opts Options) Options {
	if opts.MinDist <= 0 {
		opts.MinDist = 1
	}
	return opts
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

// assembleInto zeroes d and accumulates every net plus the anchor springs
// into b. The triplet insertion sequence is fully determined by the netlist
// topology — never by weights or positions — which is what lets Assembler
// replay it against a cached sparsity pattern.
func (s *System) assembleInto(b *sparse.Builder) {
	nl := s.nl
	s.cholDirty = true // values change; the cached factor must refresh
	s.cholBroken = false
	clear(s.Dx)
	clear(s.Dy)
	totalW := 0.0
	center := len(s.CellOf)
	for ni := range nl.Nets {
		if len(nl.Nets[ni].Pins) >= starMinPins {
			totalW += s.assembleStar(b, ni, center)
			center++
		} else {
			totalW += s.assembleClique(b, ni)
		}
	}

	// Anchor springs to the region center keep C strictly positive
	// definite even for floating components, and bound the displacement
	// response of isolated cell islands to external forces.
	anchor := s.opts.Anchor
	if anchor <= 0 {
		anchor = 1e-4 * (totalW/float64(max(len(s.CellOf), 1)) + 1)
	}
	c := nl.Region.Outline.Center()
	for vi := range s.CellOf {
		b.Add(vi, vi, anchor)
		s.Dx[vi] -= anchor * c.X
		s.Dy[vi] -= anchor * c.Y
	}
}

// assembleClique adds net ni as the paper's clique (§2.1): k(k−1)/2 edges
// of weight w/k, each divided by its pin-to-pin distance when linearizing.
// It returns the summed edge weight (for anchor scaling).
func (s *System) assembleClique(b *sparse.Builder, ni int) float64 {
	nl := s.nl
	net := &nl.Nets[ni]
	k := len(net.Pins)
	if k < 2 {
		return 0
	}
	base := net.Weight / float64(k)
	var total float64
	for i := 0; i < k; i++ {
		pi := net.Pins[i]
		for j := i + 1; j < k; j++ {
			pj := net.Pins[j]
			w := base
			if s.opts.Linearize {
				d := nl.PinPos(pi).Dist(nl.PinPos(pj))
				if d < s.opts.MinDist {
					d = s.opts.MinDist
				}
				w /= d
			}
			total += w
			s.assembleEdge(b, pi, pj, w)
		}
	}
	return total
}

// assembleStar adds net ni as a star: every pin is tied to the free center
// variable c by a spoke of weight w, the net weight. Minimizing over the
// center's position leaves a clique of pair weight w/k — the paper's
// clique exactly. When linearizing, every spoke is divided by R, the mean
// distance of the pins to their centroid (clamped below by MinDist), which
// leaves a clique of pair weight w/(k·R): one linearization distance per
// net instead of one per pin pair. It returns the weight of that clique,
// w(k−1)/(2R), so the anchor scales as it would under the clique.
func (s *System) assembleStar(b *sparse.Builder, ni, c int) float64 {
	nl := s.nl
	net := &nl.Nets[ni]
	k := float64(len(net.Pins))
	w := net.Weight
	if s.opts.Linearize {
		centroid := s.centroid(ni)
		var r float64
		for _, p := range net.Pins {
			r += nl.PinPos(p).Dist(centroid)
		}
		w /= max(r/k, s.opts.MinDist)
	}
	// The center's diagonal sums its k spokes. A zero-weight net leaves
	// the center decoupled; a unit diagonal keeps its row nonsingular.
	cc := k * w
	if cc == 0 {
		cc = 1
	}
	b.Add(c, c, cc)
	for _, p := range net.Pins {
		// Cost w((x+o)−x_c)² per pin: the offset o shifts d; a fixed
		// pin folds entirely into the center's d.
		if vi := s.VarOf[p.Cell]; vi >= 0 {
			b.Add(vi, vi, w)
			b.AddSym(vi, c, -w)
			s.Dx[vi] += w * p.Offset.X
			s.Dy[vi] += w * p.Offset.Y
			s.Dx[c] -= w * p.Offset.X
			s.Dy[c] -= w * p.Offset.Y
		} else {
			pos := nl.PinPos(p)
			s.Dx[c] -= w * pos.X
			s.Dy[c] -= w * pos.Y
		}
	}
	return w * (k - 1) / 2
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

// assembleEdge adds one weighted spring between two pins. Each pin is
// cellPos + offset; offsets fold into the linear term, fixed cells fold
// entirely into it.
func (s *System) assembleEdge(b *sparse.Builder, pa, pb netlist.Pin, w float64) {
	nl := s.nl
	va, vb := s.VarOf[pa.Cell], s.VarOf[pb.Cell]
	switch {
	case va >= 0 && vb >= 0:
		b.Add(va, va, w)
		b.Add(vb, vb, w)
		b.AddSym(va, vb, -w)
		// Cost w((xa+oa)−(xb+ob))²; the offset difference shifts d.
		ox := pa.Offset.X - pb.Offset.X
		oy := pa.Offset.Y - pb.Offset.Y
		s.Dx[va] += w * ox
		s.Dx[vb] -= w * ox
		s.Dy[va] += w * oy
		s.Dy[vb] -= w * oy
	case va >= 0:
		p := nl.PinPos(pb) // absolute fixed pin position
		b.Add(va, va, w)
		s.Dx[va] += w * (pa.Offset.X - p.X)
		s.Dy[va] += w * (pa.Offset.Y - p.Y)
	case vb >= 0:
		p := nl.PinPos(pa)
		b.Add(vb, vb, w)
		s.Dx[vb] += w * (pb.Offset.X - p.X)
		s.Dy[vb] += w * (pb.Offset.Y - p.Y)
	}
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
func (s *System) CellStiffness() []float64 {
	d := s.C.Diag()
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
	// assembly, nothing for an up-to-date factor.
	PrecondWall time.Duration
	// Fallback is set when the IC0 factorization broke down, so both
	// axes were solved with Jacobi.
	Fallback bool
	// PairWall is the wall time of the concurrent x/y solve pair —
	// smaller than X.Elapsed + Y.Elapsed whenever the axes overlap, and
	// the number that actually bounds the step time.
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

// solveBoth runs the two independent axis solves concurrently; C and the
// prepared preconditioner factor are shared read-only.
func (s *System) solveBoth(x, bx, y, by []float64, opt sparse.CGOptions, out *SolveResult) (errX, errY error) {
	start := obsv.StartTimer()
	out.Fallback = s.prepPrecond(&opt)
	out.PrecondWall = start.Elapsed()
	start = obsv.StartTimer()
	par.Pair(
		func() { out.X, errX = sparse.SolveCG(s.C, x, bx, opt) },
		func() { out.Y, errY = sparse.SolveCG(s.C, y, by, opt) },
	)
	out.PairWall = start.Elapsed()
	return errX, errY
}

// prepPrecond points opt at the cached IC0 factor, refactoring the cached
// pattern if the assembly changed since the last solve. A pivot breakdown
// leaves opt without a factor, so this assembly's solves run with Jacobi,
// reported as fallback. Factoring once here keeps the concurrent axis
// solves from each factoring, and keeps repeated solves of one assembly at
// zero extra cost.
func (s *System) prepPrecond(opt *sparse.CGOptions) (fallback bool) {
	if s.chol == nil {
		s.chol = sparse.NewIC0Pattern(s.C)
		s.cholDirty = true
	}
	if s.cholDirty {
		s.cholBroken = !s.chol.Refactor(s.C)
		s.cholDirty = false
	}
	opt.Factor = nil
	if s.cholBroken {
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
