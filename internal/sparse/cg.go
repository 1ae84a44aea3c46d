package sparse

import (
	"errors"
	"math"
	"time"

	"repro/internal/obsv"
)

// Preconditioner names the preconditioner a CG solve applied, as
// reported in CGResult.Precond and the metrics' precond label.
type Preconditioner int

const (
	// Jacobi (diagonal) preconditioning: what SolveCG applies without a
	// factor, and the fallback when an IC0 factorization breaks down.
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

// cgMetrics holds the package's metric handles, one set per effective
// preconditioner tag. All handles are nil until EnableMetrics, and every
// obsv operation on a nil handle is a no-op, so the disabled path costs
// nothing.
type cgMetrics struct {
	solves       *obsv.Counter
	iterations   *obsv.Counter
	notConverged *obsv.Counter
	residual     *obsv.Histogram
	seconds      *obsv.Histogram
}

// metrics is indexed by the effective Preconditioner; slot 0 stays
// unused.
var metrics [3]cgMetrics

// EnableMetrics registers the solver's counters and histograms in r and
// routes all subsequent solves to them:
//
//	sparse_cg_solves_total{precond=...}        solves started
//	sparse_cg_iterations_total{precond=...}    CG iterations executed
//	sparse_cg_nonconverged_total{precond=...}  solves that hit ErrNotConverged
//	sparse_cg_residual{precond=...}            final relative residual
//	sparse_cg_seconds{precond=...}             solve wall time
//
// The precond label is the preconditioner the solve applied: ic0 with a
// factor, jacobi without one. Passing nil detaches the solver from any
// registry.
func EnableMetrics(r *obsv.Registry) {
	for _, p := range []Preconditioner{Jacobi, IC0} {
		tag := `{precond="` + p.String() + `"}`
		m := &metrics[p]
		if r == nil {
			*m = cgMetrics{}
			continue
		}
		m.solves = r.Counter("sparse_cg_solves_total"+tag, "conjugate-gradient solves started")
		m.iterations = r.Counter("sparse_cg_iterations_total"+tag, "conjugate-gradient iterations executed")
		m.notConverged = r.Counter("sparse_cg_nonconverged_total"+tag, "CG solves that hit MaxIter above tolerance")
		m.residual = r.Histogram("sparse_cg_residual"+tag, "final relative residual per solve", obsv.ResidualBuckets)
		m.seconds = r.Histogram("sparse_cg_seconds"+tag, "CG solve wall time in seconds", obsv.SecondsBuckets)
	}
}

// CGOptions controls the conjugate gradient solver.
type CGOptions struct {
	// Tol is the relative residual target ‖r‖/‖b‖. Defaults to 1e-8.
	Tol float64
	// MaxIter caps the iteration count. Defaults to 10·N.
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
	Elapsed    time.Duration  // solve wall time
	Precond    Preconditioner // preconditioner applied
}

// ErrNotConverged is returned when CG hits MaxIter above tolerance. The
// best iterate found is still written to x, since a slightly unconverged
// placement solve is usable.
var ErrNotConverged = errors.New("sparse: conjugate gradient did not converge")

// SolveCG solves M·x = b for symmetric positive-definite M using
// preconditioned conjugate gradients: opt.Factor's IC0 triangular solves
// when it is set, the diagonal (Jacobi) otherwise. x carries the initial
// guess on entry (warm start) and the solution on return.
func SolveCG(m *CSR, x, b []float64, opt CGOptions) (res CGResult, err error) {
	n := m.N()
	chol := opt.Factor
	if len(x) != n || len(b) != n || (chol != nil && chol.N() != n) {
		panic("sparse: SolveCG dimension mismatch")
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

	eff := Jacobi // the metrics tag
	if chol != nil {
		eff = IC0
	}
	start := obsv.StartTimer()
	defer func() {
		res.Elapsed = start.Elapsed()
		res.Precond = eff
		mt := &metrics[eff]
		mt.solves.Inc()
		mt.iterations.Add(int64(res.Iterations))
		mt.residual.Observe(res.Residual)
		mt.seconds.Observe(res.Elapsed.Seconds())
		if err != nil {
			mt.notConverged.Inc()
		}
	}()
	invDiag := make([]float64, n)
	for i, d := range m.Diag() {
		if d > 0 {
			invDiag[i] = 1 / d
		} else {
			invDiag[i] = 1 // row with no anchor yet; plain CG behaviour
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

	// The four CG work vectors are per-solve by design: SolveCG is a
	// stateless package function (warm starts ride in through x), and
	// caller-owned scratch would leak solver internals through the API.
	r := make([]float64, n)
	z := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)

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
		return CGResult{Iterations: 0, Residual: rel, Converged: true}, nil
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
			return CGResult{Iterations: iter, Residual: rel}, ErrNotConverged
		}
		alpha := rz / pap
		Axpy(x, alpha, p)
		Axpy(r, -alpha, ap)
		rel = Norm2(r) / bnorm
		if rel <= opt.Tol {
			return CGResult{Iterations: iter, Residual: rel, Converged: true}, nil
		}
		precond(z, r)
		rzNew := Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return CGResult{Iterations: opt.MaxIter, Residual: rel}, ErrNotConverged
}
