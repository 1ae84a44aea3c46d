package sparse

import (
	"errors"
	"testing"
)

// testSystem builds a small SPD system with two off-diagonal bands, so
// its IC0 factor drops fill and is not an exact Cholesky factor.
func testSystem(n int) (*CSR, []float64) {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 5)
		for _, j := range []int{i + 1, i + 7} {
			if j < n {
				b.AddSym(i, j, -1)
			}
		}
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = float64(i%7) + 1
	}
	return b.Build(), rhs
}

// TestSolveCGReportsPrecond: every way out of a CG solve — a guess that
// already solves the system, convergence, and an exhausted MaxIter —
// reports the preconditioner it applied: ic0 with a factor, jacobi
// without one.
func TestSolveCGReportsPrecond(t *testing.T) {
	m, rhs := testSystem(50)
	for _, f := range []*IC0Factor{nil, NewIC0(m)} {
		want := Jacobi
		if f != nil {
			want = IC0
		}
		x := make([]float64, 50)
		res, err := (&CGWork{}).Solve(m, x, rhs, CGOptions{Tol: 1e-10, Factor: f})
		if err != nil || !res.Converged || res.Iterations == 0 || res.Precond != want {
			t.Fatalf("%v: solve %+v, %v", want, res, err)
		}
		if res.Residual <= 0 || res.Residual > 1e-10 {
			t.Fatalf("%v: Residual = %g, want in (0, 1e-10]", want, res.Residual)
		}
		res, err = (&CGWork{}).Solve(m, x, rhs, CGOptions{Tol: 1e-8, Factor: f})
		if err != nil || res.Iterations != 0 || res.Precond != want {
			t.Errorf("%v: solved guess %+v, %v", want, res, err)
		}
		x = make([]float64, 50)
		res, err = (&CGWork{}).Solve(m, x, rhs, CGOptions{Tol: 1e-14, MaxIter: 2, Factor: f})
		if !errors.Is(err, ErrNotConverged) || res.Converged || res.Precond != want {
			t.Errorf("%v: starved solve %+v, %v", want, res, err)
		}
	}
}

func TestPreconditionerString(t *testing.T) {
	if Jacobi.String() != "jacobi" || IC0.String() != "ic0" {
		t.Fatalf("tags: %q %q", Jacobi.String(), IC0.String())
	}
}
