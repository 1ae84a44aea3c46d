package sparse

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// mulVecRef is the MulVec kernel before its rows were sliced once: it
// indexes rowPtr, cols and vals on every nonzero. It is kept as the
// reference the sliced kernel must reproduce bit for bit.
func mulVecRef(m *CSR, dst, x []float64) {
	for i := 0; i < m.n; i++ {
		s := 0.0
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.vals[k] * x[m.cols[k]]
		}
		dst[i] = s
	}
}

// applyRef is the IC0 Apply kernel before its rows were sliced once; the
// reference for Apply.
func applyRef(f *IC0Factor, z, r []float64) {
	rp, cols, vals, diag := f.rowPtr, f.cols, f.vals, f.diag
	for i := 0; i < f.n; i++ {
		s := r[i]
		for k := rp[i]; k < rp[i+1]; k++ {
			s -= vals[k] * z[cols[k]]
		}
		z[i] = s / diag[i]
	}
	for i := f.n - 1; i >= 0; i-- {
		z[i] /= diag[i]
		for k := rp[i]; k < rp[i+1]; k++ {
			z[cols[k]] -= vals[k] * z[i]
		}
	}
}

// solveCGRef is the CG solve before it gained a reusable workspace: six fresh
// n-vectors per solve, the Jacobi diagonal even under IC0, the reference
// kernels, and separate Axpy and Norm2 passes. CGWork.Solve must
// reproduce its iterates, counts and residuals bit for bit.
func solveCGRef(m *CSR, x, b []float64, opt CGOptions) (CGResult, error) {
	n := m.N()
	chol := opt.Factor
	if opt.Tol <= 0 {
		opt.Tol = 1e-8
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 10 * n
		if opt.MaxIter < 100 {
			opt.MaxIter = 100
		}
	}
	eff := Jacobi
	if chol != nil {
		eff = IC0
	}
	invDiag := make([]float64, n)
	for i, d := range m.Diag() {
		if d > 0 {
			invDiag[i] = 1 / d
		} else {
			invDiag[i] = 1
		}
	}
	precond := func(z, r []float64) {
		if chol != nil {
			applyRef(chol, z, r)
			return
		}
		for i := range z {
			z[i] = invDiag[i] * r[i]
		}
	}
	r := make([]float64, n)
	z := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)

	mulVecRef(m, r, x)
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
		mulVecRef(m, ap, p)
		pap := Dot(p, ap)
		if pap <= 0 || math.IsNaN(pap) {
			return CGResult{Iterations: iter, Residual: rel, Precond: eff}, ErrNotConverged
		}
		alpha := rz / pap
		Axpy(x, alpha, p)
		Axpy(r, -alpha, ap)
		rel = Norm2(r) / bnorm
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

// sameBits reports bitwise equality of two vectors.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameSolve reports whether two solves returned the same result: equal
// iteration counts, convergence, preconditioner and error, and bit-equal
// residuals.
func sameSolve(a CGResult, aErr error, b CGResult, bErr error) bool {
	return a.Iterations == b.Iterations && a.Converged == b.Converged &&
		a.Precond == b.Precond && errors.Is(aErr, bErr) && errors.Is(bErr, aErr) &&
		math.Float64bits(a.Residual) == math.Float64bits(b.Residual)
}

// starSystem builds a placement-shaped matrix the way qp assembles one:
// the cells' variables first, then one center variable per net of four or
// more pins, tied to each pin by a spoke; 2- and 3-pin nets stay cliques.
// Pin counts follow netgen's distribution, so a few center rows carry up
// to 120 entries, and pins cluster within a window of nearby cells. A
// small anchor on every cell keeps the matrix positive definite but
// conditioned like a placement matrix, not a diagonally dominant toy.
func starSystem(rng *rand.Rand, cells, nets int) *CSR {
	degs := make([]int, nets)
	centers := 0
	for e := range degs {
		r := rng.Float64()
		switch {
		case r < 0.55:
			degs[e] = 2
		case r < 0.75:
			degs[e] = 3
		case r < 0.85:
			degs[e] = 4
		case r < 0.97:
			degs[e] = 5 + rng.Intn(6)
		case r < 0.998:
			degs[e] = 11 + rng.Intn(50)
		default:
			degs[e] = 61 + rng.Intn(60)
		}
		degs[e] = min(degs[e], cells)
		if degs[e] >= 4 {
			centers++
		}
	}
	b := NewBuilder(cells + centers)
	center := cells
	pins := make([]int, 0, 120)
	for _, d := range degs {
		window := max(200, 2*d)
		base := rng.Intn(cells)
		pins = pins[:0]
		for len(pins) < d {
			c := (base + rng.Intn(window)) % cells
			dup := false
			for _, p := range pins {
				dup = dup || p == c
			}
			if !dup {
				pins = append(pins, c)
			}
		}
		w := 0.5 + rng.Float64()
		if d < 4 {
			for a := 0; a < d; a++ {
				for c := a + 1; c < d; c++ {
					b.Add(pins[a], pins[a], w/float64(d))
					b.Add(pins[c], pins[c], w/float64(d))
					b.AddSym(pins[a], pins[c], -w/float64(d))
				}
			}
			continue
		}
		b.Add(center, center, float64(d)*w)
		for _, p := range pins {
			b.Add(p, p, w)
			b.AddSym(p, center, -w)
		}
		center++
	}
	for i := 0; i < cells; i++ {
		b.Add(i, i, 1e-3)
	}
	return b.Build()
}

// kernelCases returns the clique- and star-shaped SPD systems the kernel
// tests compare on.
func kernelCases(rng *rand.Rand) map[string]*CSR {
	cb := NewBuilder(400)
	fillSPD(cb, 400, cliqueSprings(rng, 400, 300), 1)
	return map[string]*CSR{
		"clique": cb.Build(),
		"star":   starSystem(rng, 600, 800),
	}
}

// TestKernelsMatchReference pins MulVec, Apply and CGWork.Solve to the
// kernels they replaced: bit-equal products, preconditioner applications,
// iterates and residuals, and equal iteration counts, for Jacobi and IC0
// from cold and warm starts, all through one reused workspace.
func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	var w CGWork
	for name, m := range kernelCases(rng) {
		n := m.N()
		f := NewIC0(m)
		if f == nil {
			t.Fatalf("%s: IC0 broke down", name)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got, want := make([]float64, n), make([]float64, n)
		m.MulVec(got, x)
		mulVecRef(m, want, x)
		if !sameBits(got, want) {
			t.Fatalf("%s: MulVec differs from the reference", name)
		}
		f.Apply(got, x)
		applyRef(f, want, x)
		if !sameBits(got, want) {
			t.Fatalf("%s: Apply differs from the reference", name)
		}

		rhs := make([]float64, n)
		warm := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
			warm[i] = 0.1 * rng.NormFloat64()
		}
		for _, factor := range []*IC0Factor{nil, f} {
			for start, guess := range map[string][]float64{"cold": make([]float64, n), "warm": warm} {
				opt := CGOptions{Tol: 1e-9, Factor: factor}
				xg := append([]float64(nil), guess...)
				xw := append([]float64(nil), guess...)
				gr, gErr := w.Solve(m, xg, rhs, opt)
				wr, wErr := solveCGRef(m, xw, rhs, opt)
				if !sameSolve(gr, gErr, wr, wErr) || !sameBits(xg, xw) {
					t.Fatalf("%s %s %v: Solve %+v, %v; reference %+v, %v; iterates equal %v",
						name, start, gr.Precond, gr, gErr, wr, wErr, sameBits(xg, xw))
				}
				if gr.Iterations < 5 {
					t.Fatalf("%s %s %v: %d iterations exercise too little", name, start, gr.Precond, gr.Iterations)
				}
			}
		}
	}
}

// TestCGWorkReuse runs one CGWork through growing and shrinking systems,
// an early exit, a breakdown, a starved solve, a change of preconditioner
// and a new matrix of the same size: each result must be bit-equal to a
// fresh workspace's.
func TestCGWorkReuse(t *testing.T) {
	m50, rhs50 := testSystem(50)
	m500, rhs500 := testSystem(500)
	bad := NewBuilder(2)
	bad.AddSym(0, 0, -1)
	bad.AddSym(1, 1, -1)
	mBad := bad.Build()
	// A second 500-row matrix with another diagonal: a Jacobi solve of the
	// same size must not reuse the previous matrix's inverse diagonal.
	alt := NewBuilder(500)
	for i := 0; i < 500; i++ {
		alt.Add(i, i, 3+float64(i%5))
		if i+1 < 500 {
			alt.AddSym(i, i+1, -1)
		}
	}
	mAlt := alt.Build()
	f50, f500 := NewIC0(m50), NewIC0(m500)
	cases := []struct {
		name string
		m    *CSR
		rhs  []float64
		opt  CGOptions
	}{
		{"n50", m50, rhs50, CGOptions{Tol: 1e-10}},
		{"n500", m500, rhs500, CGOptions{Tol: 1e-10, Factor: f500}},
		{"n50-again", m50, rhs50, CGOptions{Tol: 1e-10, Factor: f50}},
		{"zero-rhs", m500, make([]float64, 500), CGOptions{Factor: f500}},
		{"breakdown", mBad, []float64{1, 1}, CGOptions{}},
		{"max-iter", m500, rhs500, CGOptions{Tol: 1e-14, MaxIter: 3, Factor: f500}},
		{"to-jacobi", m500, rhs500, CGOptions{Tol: 1e-10}},
		{"same-size-jacobi", mAlt, rhs500, CGOptions{Tol: 1e-10}},
		{"to-ic0", m500, rhs500, CGOptions{Tol: 1e-10, Factor: f500}},
	}
	var w CGWork
	for _, tc := range cases {
		xr := make([]float64, tc.m.N())
		xf := make([]float64, tc.m.N())
		gr, gErr := w.Solve(tc.m, xr, tc.rhs, tc.opt)
		wr, wErr := (&CGWork{}).Solve(tc.m, xf, tc.rhs, tc.opt)
		if !sameSolve(gr, gErr, wr, wErr) || !sameBits(xr, xf) {
			t.Fatalf("%s: reused %+v, %v; fresh %+v, %v; iterates equal %v",
				tc.name, gr, gErr, wr, wErr, sameBits(xr, xf))
		}
		switch tc.name {
		case "breakdown", "max-iter":
			if !errors.Is(gErr, ErrNotConverged) {
				t.Fatalf("%s: err %v, want ErrNotConverged", tc.name, gErr)
			}
		case "zero-rhs":
			if gr.Iterations != 0 || gErr != nil {
				t.Fatalf("%s: %+v, %v, want an early exit", tc.name, gr, gErr)
			}
		}
	}

	x := make([]float64, 500)
	allocs := testing.AllocsPerRun(10, func() {
		clear(x)
		if _, err := w.Solve(m500, x, rhs500, CGOptions{Tol: 1e-10, Factor: f500}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a warmed IC0 solve allocates %.1f objects, want 0", allocs)
	}
}

// FuzzSolveCG compares a reused CGWork with the reference solver bit for
// bit on fuzzed SPD spring systems: Jacobi then IC0, from a cold and then
// a warm start, after the workspace first served a system of another size.
func FuzzSolveCG(f *testing.F) {
	f.Add([]byte{3, 0, 1, 8, 1, 2, 8, 2, 3, 16}, int64(1))
	f.Add([]byte{7, 5, 1, 1, 5, 3, 255, 3, 7, 9, 0, 6, 40}, int64(2))
	f.Add([]byte{0}, int64(3))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		n, is, js, vs := decodeTriplets(data)
		b := NewBuilder(n)
		for k := range is {
			if is[k] == js[k] {
				continue
			}
			w := math.Abs(vs[k]) + 0.25
			b.AddSym(is[k], js[k], -w)
			b.Add(is[k], is[k], w)
			b.Add(js[k], js[k], w)
		}
		for i := 0; i < n; i++ {
			b.Add(i, i, 0.01)
		}
		m := b.Build()
		rng := rand.New(rand.NewSource(seed))
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}

		var w CGWork
		other, otherRHS := testSystem(n + 9)
		if _, err := w.Solve(other, make([]float64, n+9), otherRHS, CGOptions{}); err != nil {
			t.Fatal(err)
		}
		guess := make([]float64, n)
		for _, factor := range []*IC0Factor{nil, NewIC0(m)} {
			for _, warm := range []bool{false, true} {
				if warm {
					for i := range guess {
						guess[i] = rng.NormFloat64()
					}
				}
				opt := CGOptions{Tol: 1e-12, Factor: factor}
				xg := append([]float64(nil), guess...)
				xw := append([]float64(nil), guess...)
				gr, gErr := w.Solve(m, xg, rhs, opt)
				wr, wErr := solveCGRef(m, xw, rhs, opt)
				if !sameSolve(gr, gErr, wr, wErr) || !sameBits(xg, xw) {
					t.Fatalf("warm=%v %v: Solve %+v, %v; reference %+v, %v", warm, gr.Precond, gr, gErr, wr, wErr)
				}
			}
		}
	})
}

// starBench returns a star-shaped system of about 6.7k unknowns, the size
// of kplace-5k's placement matrix, its IC0 factor and a right-hand side.
func starBench(b *testing.B) (*CSR, *IC0Factor, []float64) {
	rng := rand.New(rand.NewSource(48))
	m := starSystem(rng, 5000, 6666)
	f := NewIC0(m)
	if f == nil {
		b.Fatal("IC0 broke down")
	}
	rhs := make([]float64, m.N())
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	return m, f, rhs
}

// BenchmarkSolveCG times one cold-start IC0 solve to 1e-6 through a
// warmed CGWork.
func BenchmarkSolveCG(b *testing.B) {
	m, f, rhs := starBench(b)
	x := make([]float64, m.N())
	var w CGWork
	opt := CGOptions{Tol: 1e-6, Factor: f}
	res, err := w.Solve(m, x, rhs, opt) // grows the workspace
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(x)
		if res, err = w.Solve(m, x, rhs, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Iterations), "iters")
	b.ReportMetric(float64(m.N()), "n")
}

// BenchmarkIC0Apply times one preconditioner application on the same
// system.
func BenchmarkIC0Apply(b *testing.B) {
	m, f, rhs := starBench(b)
	z := make([]float64, m.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Apply(z, rhs)
	}
	b.ReportMetric(float64(m.NNZ()), "nnz")
}
