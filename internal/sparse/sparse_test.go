package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBuilderMergesDuplicates(t *testing.T) {
	b := NewBuilder(3)
	b.Add(0, 1, 2)
	b.Add(0, 1, 3)
	b.Add(0, 0, 1)
	b.Add(2, 2, 4)
	m := b.Build()
	if got := m.At(0, 1); got != 5 {
		t.Errorf("At(0,1) = %v", got)
	}
	if got := m.At(0, 0); got != 1 {
		t.Errorf("At(0,0) = %v", got)
	}
	if got := m.At(1, 1); got != 0 {
		t.Errorf("At(1,1) = %v", got)
	}
	if m.NNZ() != 3 {
		t.Errorf("NNZ = %d", m.NNZ())
	}
}

func TestBuilderDropsExactZeros(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 1, 2)
	b.Add(0, 1, -2)
	m := b.Build()
	if m.NNZ() != 0 {
		t.Errorf("NNZ = %d, want 0", m.NNZ())
	}
}

func TestAddSym(t *testing.T) {
	b := NewBuilder(3)
	b.AddSym(0, 2, 7)
	b.AddSym(1, 1, 3)
	m := b.Build()
	if m.At(0, 2) != 7 || m.At(2, 0) != 7 {
		t.Error("AddSym off-diagonal broken")
	}
	if m.At(1, 1) != 3 {
		t.Errorf("AddSym diagonal = %v, want 3 (no double add)", m.At(1, 1))
	}
	if !m.IsSymmetric(0) {
		t.Error("not symmetric")
	}
}

func TestAddOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewBuilder(2).Add(0, 5, 1)
}

func TestMulVec(t *testing.T) {
	// [2 1 0; 1 3 1; 0 1 2] * [1 2 3] = [4 10 8]
	b := NewBuilder(3)
	b.AddSym(0, 0, 2)
	b.AddSym(1, 1, 3)
	b.AddSym(2, 2, 2)
	b.AddSym(0, 1, 1)
	b.AddSym(1, 2, 1)
	m := b.Build()
	dst := make([]float64, 3)
	m.MulVec(dst, []float64{1, 2, 3})
	want := []float64{4, 10, 8}
	for i := range want {
		if math.Abs(dst[i]-want[i]) > 1e-12 {
			t.Errorf("MulVec[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestMulVecDimensionPanic(t *testing.T) {
	m := NewBuilder(3).Build()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	m.MulVec(make([]float64, 2), make([]float64, 3))
}

func TestDiag(t *testing.T) {
	b := NewBuilder(3)
	b.Add(0, 0, 5)
	b.Add(2, 2, 7)
	d := b.Build().Diag()
	if d[0] != 5 || d[1] != 0 || d[2] != 7 {
		t.Errorf("Diag = %v", d)
	}
}

func TestIsSymmetricDetectsAsymmetry(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 1, 1)
	if b.Build().IsSymmetric(1e-12) {
		t.Error("asymmetric matrix reported symmetric")
	}
}

func TestRowDiagonallyDominant(t *testing.T) {
	b := NewBuilder(2)
	b.AddSym(0, 0, 3)
	b.AddSym(1, 1, 3)
	b.AddSym(0, 1, -2)
	if !b.Build().RowDiagonallyDominant(1e-12) {
		t.Error("dominant matrix rejected")
	}
	b2 := NewBuilder(2)
	b2.AddSym(0, 0, 1)
	b2.AddSym(1, 1, 1)
	b2.AddSym(0, 1, -2)
	if b2.Build().RowDiagonallyDominant(1e-12) {
		t.Error("non-dominant matrix accepted")
	}
}

// randomSPD builds a random Laplacian-plus-diagonal SPD matrix, the exact
// structure of quadratic placement matrices.
func randomSPD(rng *rand.Rand, n int) *CSR {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		// chain plus random chords
		if i+1 < n {
			w := 0.5 + rng.Float64()
			b.AddSym(i, i+1, -w)
			b.AddSym(i, i, w)
			b.AddSym(i+1, i+1, w)
		}
		j := rng.Intn(n)
		if j != i {
			w := 0.5 + rng.Float64()
			b.AddSym(i, j, -w)
			b.AddSym(i, i, w)
			b.AddSym(j, j, w)
		}
	}
	// Anchor a few nodes (fixed-pin diagonal augmentation) to make it
	// strictly positive definite.
	for k := 0; k < 1+n/10; k++ {
		b.Add(rng.Intn(n), rng.Intn(n)*0+k%n, 0) // no-op keeps structure honest
		b.Add(k%n, k%n, 1+rng.Float64())
	}
	return b.Build()
}

func TestCGSolvesRandomSPDSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(60)
		m := randomSPD(rng, n)
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64() * 10
		}
		bvec := make([]float64, n)
		m.MulVec(bvec, want)
		x := make([]float64, n)
		res, err := SolveCG(m, x, bvec, CGOptions{Tol: 1e-10})
		if err != nil {
			t.Fatalf("trial %d: %v (res %.3g after %d iters)", trial, err, res.Residual, res.Iterations)
		}
		for i := range want {
			if math.Abs(x[i]-want[i]) > 1e-5*(1+math.Abs(want[i])) {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, x[i], want[i])
			}
		}
	}
}

func TestCGWarmStartConvergesFaster(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 200
	m := randomSPD(rng, n)
	want := make([]float64, n)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	m.MulVec(b, want)

	cold := make([]float64, n)
	resCold, err := SolveCG(m, cold, b, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	warm := make([]float64, n)
	for i := range warm {
		warm[i] = want[i] + 1e-6*rng.NormFloat64()
	}
	resWarm, err := SolveCG(m, warm, b, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if resWarm.Iterations >= resCold.Iterations {
		t.Errorf("warm start (%d iters) not faster than cold (%d iters)",
			resWarm.Iterations, resCold.Iterations)
	}
}

func TestCGZeroRHS(t *testing.T) {
	m := randomSPD(rand.New(rand.NewSource(1)), 10)
	x := make([]float64, 10)
	res, err := SolveCG(m, x, make([]float64, 10), CGOptions{})
	if err != nil || !res.Converged {
		t.Fatalf("zero RHS: %v %+v", err, res)
	}
	for i, v := range x {
		if v != 0 {
			t.Errorf("x[%d] = %v", i, v)
		}
	}
}

func TestCGMaxIterReturnsError(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomSPD(rng, 100)
	b := make([]float64, 100)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, 100)
	res, err := SolveCG(m, x, b, CGOptions{Tol: 1e-14, MaxIter: 2})
	if err == nil {
		t.Error("expected ErrNotConverged")
	}
	if res.Converged {
		t.Error("result claims convergence")
	}
	if res.Iterations != 2 {
		t.Errorf("iterations = %d", res.Iterations)
	}
}

func TestCGIndefiniteMatrixFailsGracefully(t *testing.T) {
	b := NewBuilder(2)
	b.AddSym(0, 0, -1)
	b.AddSym(1, 1, -1)
	m := b.Build()
	x := make([]float64, 2)
	_, err := SolveCG(m, x, []float64{1, 1}, CGOptions{})
	if err == nil {
		t.Error("expected failure on negative-definite matrix")
	}
}

func TestVectorHelpers(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Errorf("Dot = %v", Dot(a, b))
	}
	if math.Abs(Norm2([]float64{3, 4})-5) > 1e-12 {
		t.Errorf("Norm2 = %v", Norm2([]float64{3, 4}))
	}
	dst := []float64{1, 1, 1}
	Axpy(dst, 2, a)
	if dst[0] != 3 || dst[1] != 5 || dst[2] != 7 {
		t.Errorf("Axpy = %v", dst)
	}
}

func TestMulVecMatchesDenseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		dense := make([][]float64, n)
		b := NewBuilder(n)
		for i := range dense {
			dense[i] = make([]float64, n)
		}
		for k := 0; k < n*2; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			v := rng.NormFloat64()
			dense[i][j] += v
			b.Add(i, j, v)
		}
		m := b.Build()
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := make([]float64, n)
		m.MulVec(got, x)
		for i := 0; i < n; i++ {
			want := 0.0
			for j := 0; j < n; j++ {
				want += dense[i][j] * x[j]
			}
			if math.Abs(got[i]-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestIC0PreconditionerSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 10 + rng.Intn(80)
		m := randomSPD(rng, n)
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64() * 5
		}
		b := make([]float64, n)
		m.MulVec(b, want)
		f := NewIC0(m)
		if f == nil {
			t.Fatalf("trial %d: factorization broke down", trial)
		}
		x := make([]float64, n)
		res, err := SolveCG(m, x, b, CGOptions{Tol: 1e-10, Factor: f})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Precond != IC0 {
			t.Fatalf("trial %d: applied %v, want ic0", trial, res.Precond)
		}
		for i := range want {
			if math.Abs(x[i]-want[i]) > 1e-5*(1+math.Abs(want[i])) {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, x[i], want[i])
			}
		}
	}
}

func TestIC0ConvergesFasterThanJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	wins := 0
	const trials = 8
	for trial := 0; trial < trials; trial++ {
		n := 150
		m := randomSPD(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		xj := make([]float64, n)
		rj, err := SolveCG(m, xj, b, CGOptions{Tol: 1e-10}) // nil Factor: Jacobi
		if err != nil {
			t.Fatal(err)
		}
		xc := make([]float64, n)
		rc, err := SolveCG(m, xc, b, CGOptions{Tol: 1e-10, Factor: NewIC0(m)})
		if err != nil {
			t.Fatal(err)
		}
		if rj.Precond != Jacobi || rc.Precond != IC0 {
			t.Fatalf("applied %v / %v, want jacobi / ic0", rj.Precond, rc.Precond)
		}
		if rc.Iterations < rj.Iterations {
			wins++
		}
	}
	if wins < trials/2 {
		t.Errorf("IC0 beat Jacobi on only %d/%d systems", wins, trials)
	}
}

func TestIC0FallsBackOnBreakdown(t *testing.T) {
	// An indefinite matrix breaks the Cholesky factorization: NewIC0
	// returns no factor, so the solve runs with Jacobi and fails the same
	// way plain CG does, not panic.
	b := NewBuilder(2)
	b.AddSym(0, 0, -1)
	b.AddSym(1, 1, -1)
	m := b.Build()
	f := NewIC0(m)
	if f != nil {
		t.Fatal("factorization of a negative-definite matrix succeeded")
	}
	x := make([]float64, 2)
	res, err := SolveCG(m, x, []float64{1, 1}, CGOptions{Factor: f})
	if err == nil {
		t.Error("expected failure on negative-definite matrix")
	}
	if res.Precond != Jacobi {
		t.Errorf("applied %v, want jacobi", res.Precond)
	}
}
