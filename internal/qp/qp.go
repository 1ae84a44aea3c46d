// Package qp assembles and solves the paper's quadratic placement system
// (§2): the clique net model yields a symmetric positive-definite matrix C
// and vectors d (x and y parts), and additional forces e extend the
// equilibrium condition to C·p + d + e = 0 (eq. 3). The net-weight
// linearization of [14] (Sigl/Doll/Johannes, DAC'91) is applied optionally.
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

// NetModel selects how a multi-pin net maps onto two-pin springs.
type NetModel int

const (
	// Clique is the paper's model (§2.1): k(k−1)/2 edges of weight w/k.
	Clique NetModel = iota
	// Star connects every pin to the net's centroid, treated as a fixed
	// point of the current placement and refreshed on every rebuild (a
	// quasi-static star: no extra variable enters the system). O(k) edges,
	// useful for designs with wide nets.
	Star
	// Hybrid uses Clique for nets up to HybridThreshold pins and Star
	// above, the usual practical compromise.
	Hybrid
)

// String names the model for logs and flags.
func (m NetModel) String() string {
	switch m {
	case Star:
		return "star"
	case Hybrid:
		return "hybrid"
	default:
		return "clique"
	}
}

// ParseNetModel maps a flag/JSON value to a NetModel. The empty string is
// the zero model (Clique), so an omitted field means the paper's default.
func ParseNetModel(s string) (NetModel, bool) {
	switch s {
	case "clique", "":
		return Clique, true
	case "star":
		return Star, true
	case "hybrid":
		return Hybrid, true
	default:
		return Clique, false
	}
}

// MarshalText implements encoding.TextMarshaler with the String tag.
func (m NetModel) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler through
// ParseNetModel, so flags and JSON share one parse and one error.
func (m *NetModel) UnmarshalText(b []byte) error {
	v, ok := ParseNetModel(string(b))
	if !ok {
		return fmt.Errorf("unknown net model %q (want clique, star, or hybrid)", b)
	}
	*m = v
	return nil
}

// Options controls system assembly.
type Options struct {
	// Linearize divides each clique edge weight by the current pin-to-pin
	// distance (clamped below by MinDist), so successive solves approximate
	// a linear wire-length objective [14].
	Linearize bool
	// MinDist is the linearization distance clamp. Defaults to 1 layout
	// unit (one row height).
	MinDist float64
	// Anchor adds a tiny spring from every movable cell to the region
	// center so components with no fixed connection still have a unique
	// solution. Defaults to 1e-6 of the average connectivity.
	Anchor float64
	// Model selects the net decomposition (default Clique, the paper's).
	Model NetModel
	// HybridThreshold is the pin count above which Hybrid switches to the
	// star model. Defaults to 10.
	HybridThreshold int
}

// System is the assembled placement problem for one netlist.
type System struct {
	nl *netlist.Netlist
	// VarOf maps cell index → variable index, −1 for fixed cells.
	VarOf []int
	// CellOf maps variable index → cell index.
	CellOf []int

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
	if opts.HybridThreshold <= 0 {
		opts.HybridThreshold = 10
	}
	return opts
}

// newSkeleton allocates the structural half of a system: the cell/variable
// maps and the d vectors. Valid until the netlist's cell or fixed-flag set
// changes.
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
	n := len(s.CellOf)
	s.Dx = make([]float64, n)
	s.Dy = make([]float64, n)
	return s
}

// assembleInto zeroes d and accumulates every net plus the anchor springs
// into b. The triplet insertion sequence is fully determined by the netlist
// topology and the model options — never by weights or positions — which is
// what lets Assembler replay it against a cached sparsity pattern.
func (s *System) assembleInto(b *sparse.Builder) {
	nl := s.nl
	s.cholDirty = true // values change; the cached factor must refresh
	s.cholBroken = false
	for vi := range s.Dx {
		s.Dx[vi] = 0
		s.Dy[vi] = 0
	}
	totalW := 0.0
	for ni := range nl.Nets {
		totalW += s.assembleNet(b, ni)
	}

	// Anchor springs to the region center keep C strictly positive
	// definite even for floating components, and bound the displacement
	// response of isolated cell islands to external forces.
	anchor := s.opts.Anchor
	if anchor <= 0 {
		anchor = 1e-4 * (totalW/float64(maxInt(len(s.CellOf), 1)) + 1)
	}
	c := nl.Region.Outline.Center()
	for vi := range s.CellOf {
		b.Add(vi, vi, anchor)
		s.Dx[vi] -= anchor * c.X
		s.Dy[vi] -= anchor * c.Y
	}
}

// assembleNet adds net ni under the selected model and returns the summed
// edge weight (for anchor scaling).
func (s *System) assembleNet(b *sparse.Builder, ni int) float64 {
	nl := s.nl
	net := &nl.Nets[ni]
	k := len(net.Pins)
	if k < 2 {
		return 0
	}
	useStar := s.opts.Model == Star && k > 2 ||
		s.opts.Model == Hybrid && k > s.opts.HybridThreshold
	if useStar {
		return s.assembleStar(b, ni)
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

// assembleStar connects each pin to the net's current centroid with weight
// w·k/(k−1), the scaling under which the star and clique models produce
// identical forces at the centroid-consistent state. The centroid is a
// quasi-static fixed point refreshed on every rebuild, so no extra
// variable enters the system.
func (s *System) assembleStar(b *sparse.Builder, ni int) float64 {
	nl := s.nl
	net := &nl.Nets[ni]
	k := len(net.Pins)
	var centroid geom.Point
	for _, p := range net.Pins {
		centroid = centroid.Add(nl.PinPos(p))
	}
	centroid = centroid.Scale(1 / float64(k))

	base := net.Weight * float64(k) / float64(k-1) / float64(k)
	var total float64
	for _, p := range net.Pins {
		vi := s.VarOf[p.Cell]
		if vi < 0 {
			continue
		}
		w := base
		if s.opts.Linearize {
			d := nl.PinPos(p).Dist(centroid)
			if d < s.opts.MinDist {
				d = s.opts.MinDist
			}
			w /= d
		}
		total += w
		// Spring from the pin to the fixed centroid point.
		b.Add(vi, vi, w)
		s.Dx[vi] += w * (p.Offset.X - centroid.X)
		s.Dy[vi] += w * (p.Offset.Y - centroid.Y)
	}
	return total
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

// N returns the number of movable variables per axis.
func (s *System) N() int { return len(s.CellOf) }

// Matrix exposes the assembled matrix C (shared by the x and y systems).
func (s *System) Matrix() *sparse.CSR { return s.C }

// SolveResult reports both axis solves.
type SolveResult struct {
	X, Y sparse.CGResult
	// PairWall is the wall time of the concurrent x/y solve pair —
	// smaller than X.Elapsed + Y.Elapsed whenever the axes overlap, and
	// the number that actually bounds the step time.
	PairWall time.Duration
}

// Solve computes the equilibrium C·p + d + e = 0 and writes the resulting
// positions into the netlist. forces is the per-cell additional force
// (indexed like nl.Cells; fixed entries ignored); nil means no additional
// force. Current positions are used as the CG warm start.
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
	for vi, ci := range s.CellOf {
		// A positive force f on a cell shifts its equilibrium along f:
		// row i of C·p = −d + f.
		bx[vi] = -s.Dx[vi]
		by[vi] = -s.Dy[vi]
		if forces != nil {
			bx[vi] += forces[ci].X
			by[vi] += forces[ci].Y
		}
		x[vi] = nl.Cells[ci].Pos.X
		y[vi] = nl.Cells[ci].Pos.Y
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
	s.prepPrecond(&opt)
	start := obsv.StartTimer()
	par.Pair(
		func() { out.X, errX = sparse.SolveCG(s.C, x, bx, opt) },
		func() { out.Y, errY = sparse.SolveCG(s.C, y, by, opt) },
	)
	out.PairWall = start.Elapsed()
	return errX, errY
}

// prepPrecond resolves opt's preconditioner against the cached factor:
// Auto picks by system size, an IC0 request refactors the cached pattern
// if the assembly changed since the last solve, and a pivot breakdown
// downgrades this assembly's solves to Jacobi. Factoring once here keeps
// the concurrent axis solves from each factoring, and keeps repeated
// solves of one assembly (timing-driven re-solves) at zero extra cost.
func (s *System) prepPrecond(opt *sparse.CGOptions) {
	eff := opt.Precond.Resolve(s.N())
	opt.Precond = eff
	opt.Factor = nil
	if eff != sparse.IC0 {
		return
	}
	if s.chol == nil {
		s.chol = sparse.NewIC0Pattern(s.C)
		s.cholDirty = true
	}
	if s.cholDirty {
		s.cholBroken = !s.chol.Refactor(s.C)
		s.cholDirty = false
	}
	if s.cholBroken {
		opt.Precond = sparse.Jacobi
		return
	}
	opt.Factor = s.chol
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
// dy0 (length N) carry a prediction of the displacement response on entry
// and the solved δ on return. Placement transformations move cells slowly
// (§4.2), so the previous transformation's response is a strong guess that
// saves CG iterations; SolveDelta is the zero-guess special case.
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
	for vi, ci := range s.CellOf {
		if forces != nil {
			bx[vi] = forces[ci].X
			by[vi] = forces[ci].Y
		} else {
			bx[vi] = 0
			by[vi] = 0
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

// SolveResidual moves the placement by δ = C⁻¹·(−d + f − C·p): the full
// correction toward the equilibrium of the *current* system under the total
// force vector f. Unlike SolveDelta (which only responds to a force
// increment), this also reacts to changed net weights — a re-weighted
// critical net pulls its cells together immediately, which timing-driven
// placement depends on. The solve is conditioned on the residual, so small
// corrections are not lost under a large absolute system.
func (s *System) SolveResidual(forces []geom.Point, opt sparse.CGOptions) (SolveResult, error) {
	nl := s.nl
	n := s.N()
	if n == 0 {
		return SolveResult{}, nil
	}
	px := make([]float64, n)
	py := make([]float64, n)
	for vi, ci := range s.CellOf {
		px[vi] = nl.Cells[ci].Pos.X
		py[vi] = nl.Cells[ci].Pos.Y
	}
	bx := make([]float64, n)
	by := make([]float64, n)
	s.C.MulVec(bx, px)
	s.C.MulVec(by, py)
	for vi, ci := range s.CellOf {
		bx[vi] = -s.Dx[vi] - bx[vi]
		by[vi] = -s.Dy[vi] - by[vi]
		if forces != nil {
			bx[vi] += forces[ci].X
			by[vi] += forces[ci].Y
		}
	}
	dx := make([]float64, n)
	dy := make([]float64, n)
	var out SolveResult
	errX, errY := s.solveBoth(dx, bx, dy, by, opt, &out)
	for vi, ci := range s.CellOf {
		nl.Cells[ci].Pos.X += dx[vi]
		nl.Cells[ci].Pos.Y += dy[vi]
	}
	if errX != nil {
		return out, fmt.Errorf("qp: x residual solve: %w", errX)
	}
	if errY != nil {
		return out, fmt.Errorf("qp: y residual solve: %w", errY)
	}
	return out, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
