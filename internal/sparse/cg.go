package sparse

import (
	"errors"
	"fmt"
	"math"
)

// Preconditioner names the preconditioner a CG solve applied, as
// reported in CGResult.Precond.
type Preconditioner int

const (
	// Jacobi (diagonal) preconditioning: what a CG solve applies without
	// a factor, and the fallback when an IC0 factorization breaks down.
	Jacobi Preconditioner = iota + 1
	// IC0 zero-fill incomplete Cholesky (the classic ICCG of GORDIAN-era
	// placers): fewer iterations, a sequential triangular solve each.
	IC0
)

// String returns the preconditioner's tag: "jacobi", "ic0", or "none"
// for the zero value (no solve ran).
func (p Preconditioner) String() string {
	switch p {
	case Jacobi:
		return "jacobi"
	case IC0:
		return "ic0"
	default:
		return "none"
	}
}

// MarshalText implements encoding.TextMarshaler with the String tag.
func (p Preconditioner) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText parses a String tag, so a decoded trace record or serve
// event carries the preconditioner it was encoded with.
func (p *Preconditioner) UnmarshalText(text []byte) error {
	for _, q := range []Preconditioner{0, Jacobi, IC0} {
		if q.String() == string(text) {
			*p = q
			return nil
		}
	}
	return fmt.Errorf("sparse: unknown preconditioner %q", text)
}

// CGOptions controls the conjugate gradient solver.
type CGOptions struct {
	// Tol is the relative residual target ‖r‖/‖b‖. Defaults to 1e-8.
	Tol float64
	// MaxIter caps the iteration count. Defaults to 10·N, and to 100 when
	// 10·N is smaller.
	MaxIter int
	// Factor, when non-nil, is the IC0 factor of the matrix to
	// precondition with; nil preconditions with the diagonal (Jacobi).
	// Callers that solve several right-hand sides against one matrix (the
	// placer's x/y axis pair) share a single factor this way; Apply is
	// read-only, so concurrent solves may share it.
	Factor *IC0Factor
}

// CGResult reports how a solve went.
type CGResult struct {
	Iterations int
	Residual   float64 // final relative residual
	Converged  bool
	Precond    Preconditioner // preconditioner applied
}

// ErrNotConverged is returned when CG hits MaxIter above tolerance. The
// best iterate found is still written to x, since a slightly unconverged
// placement solve is usable.
var ErrNotConverged = errors.New("sparse: conjugate gradient did not converge")

// CGWork holds the work vectors of a conjugate gradient solve: the
// residual r, the preconditioned residual z, the search direction p, the
// product M·p, and Jacobi's inverse diagonal. They grow on demand, so
// repeated solves of one size allocate nothing. The zero value is ready
// to use. A CGWork serves one solve at a time; concurrent solves need one
// each. A one-off solve uses a fresh one: (&CGWork{}).Solve.
type CGWork struct {
	r, z, p, ap []float64
	invDiag     []float64
}

// Solve solves M·x = b for symmetric positive-definite M using
// preconditioned conjugate gradients: opt.Factor's IC0 triangular solves
// when it is set, the diagonal (Jacobi) otherwise. x carries the initial
// guess on entry (warm start) and the solution on return. Every work
// vector is written before it is read, so a reused CGWork gives the same
// result, bit for bit, as a fresh one, and allocates nothing once grown.
func (w *CGWork) Solve(m *CSR, x, b []float64, opt CGOptions) (CGResult, error) {
	n := m.N()
	chol := opt.Factor
	if len(x) != n || len(b) != n || (chol != nil && chol.N() != n) {
		panic("sparse: CGWork.Solve dimension mismatch")
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-8
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 10 * n
		if opt.MaxIter < 100 {
			opt.MaxIter = 100
		}
	}

	r, z, p, ap := grow(w.r, n), grow(w.z, n), grow(w.p, n), grow(w.ap, n)
	w.r, w.z, w.p, w.ap = r, z, p, ap
	eff := IC0
	var invDiag []float64
	if chol == nil {
		eff = Jacobi
		invDiag = grow(w.invDiag, n)
		w.invDiag = invDiag
		m.DiagInto(invDiag)
		for i, d := range invDiag {
			if d > 0 {
				invDiag[i] = 1 / d
			} else {
				invDiag[i] = 1 // row with no anchor yet; plain CG behaviour
			}
		}
	}
	precond := func(z, r []float64) {
		if chol != nil {
			chol.Apply(z, r)
			return
		}
		for i := range z {
			z[i] = invDiag[i] * r[i]
		}
	}

	m.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	bnorm := Norm2(b)
	if bnorm == 0 {
		bnorm = 1
	}
	rel := Norm2(r) / bnorm
	if rel <= opt.Tol {
		return CGResult{Iterations: 0, Residual: rel, Converged: true, Precond: eff}, nil
	}

	precond(z, r)
	copy(p, z)
	rz := Dot(r, z)

	for iter := 1; iter <= opt.MaxIter; iter++ {
		m.MulVec(ap, p)
		pap := Dot(p, ap)
		if pap <= 0 || math.IsNaN(pap) {
			// Matrix is not positive definite along p (or numerics broke
			// down); return the best iterate.
			return CGResult{Iterations: iter, Residual: rel, Precond: eff}, ErrNotConverged
		}
		alpha := rz / pap
		Axpy(x, alpha, p)
		// r += (−α)·Ap, summing ‖r‖² in the same pass and order as Norm2.
		na := -alpha
		rr := 0.0
		for i, v := range ap {
			ri := r[i] + na*v
			r[i] = ri
			rr += ri * ri
		}
		rel = math.Sqrt(rr) / bnorm
		if rel <= opt.Tol {
			return CGResult{Iterations: iter, Residual: rel, Converged: true, Precond: eff}, nil
		}
		precond(z, r)
		rzNew := Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return CGResult{Iterations: opt.MaxIter, Residual: rel, Precond: eff}, ErrNotConverged
}

// grow returns v resized to length n, reallocating only when its capacity
// is short. The contents are unspecified.
func grow(v []float64, n int) []float64 {
	if cap(v) < n {
		return make([]float64, n)
	}
	return v[:n]
}
