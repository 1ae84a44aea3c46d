package sparse

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/obsv"
)

// testSystem builds a small SPD tridiagonal system.
func testSystem(n int) (*CSR, []float64) {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 4)
		if i+1 < n {
			b.AddSym(i, i+1, -1)
		}
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = float64(i%7) + 1
	}
	return b.Build(), rhs
}

func TestSolveCGMetrics(t *testing.T) {
	reg := obsv.NewRegistry()
	EnableMetrics(reg)
	defer EnableMetrics(nil)

	m, rhs := testSystem(50)
	x := make([]float64, 50)
	res, err := SolveCG(m, x, rhs, CGOptions{Tol: 1e-10}) // nil Factor: Jacobi
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations == 0 {
		t.Fatalf("unexpected result %+v", res)
	}
	if res.Elapsed <= 0 {
		t.Fatalf("Elapsed = %v, want > 0", res.Elapsed)
	}
	if res.Residual <= 0 || res.Residual > 1e-10 {
		t.Fatalf("Residual = %g, want in (0, 1e-10]", res.Residual)
	}

	// A starved MaxIter forces non-convergence and must be counted.
	x2 := make([]float64, 50)
	_, err = SolveCG(m, x2, rhs, CGOptions{Tol: 1e-14, MaxIter: 2})
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("want ErrNotConverged, got %v", err)
	}
	// A factor routes the solve to the ic0 family.
	x3 := make([]float64, 50)
	if r, err := SolveCG(m, x3, rhs, CGOptions{Tol: 1e-10, Factor: NewIC0(m)}); err != nil || r.Precond != IC0 {
		t.Fatalf("IC0 solve: %v, applied %v", err, r.Precond)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`sparse_cg_solves_total{precond="jacobi"} 2`,
		`sparse_cg_nonconverged_total{precond="jacobi"} 1`,
		`sparse_cg_iterations_total{precond="jacobi"}`,
		`sparse_cg_seconds_count{precond="jacobi"} 2`,
		`sparse_cg_residual_count{precond="jacobi"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics dump missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, `sparse_cg_solves_total{precond="ic0"} 1`) {
		t.Errorf("ic0 family should count the one factored solve:\n%s", out)
	}
}

func TestSolveCGMetricsDisabled(t *testing.T) {
	EnableMetrics(nil)
	m, rhs := testSystem(20)
	x := make([]float64, 20)
	res, err := SolveCG(m, x, rhs, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Fatalf("Elapsed must be measured even without a registry, got %v", res.Elapsed)
	}
}

func TestPreconditionerString(t *testing.T) {
	if Jacobi.String() != "jacobi" || IC0.String() != "ic0" {
		t.Fatalf("tags: %q %q", Jacobi.String(), IC0.String())
	}
}
