package sparse

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sameFactor reports bitwise equality of two factors' numeric content
// (pattern equality is implied by construction from the same CSR).
func sameFactor(a, b *IC0Factor) bool {
	if a.n != b.n || len(a.vals) != len(b.vals) {
		return false
	}
	for k := range a.vals {
		if math.Float64bits(a.vals[k]) != math.Float64bits(b.vals[k]) {
			return false
		}
	}
	for i := range a.diag {
		if math.Float64bits(a.diag[i]) != math.Float64bits(b.diag[i]) {
			return false
		}
	}
	return true
}

type spdSpring struct {
	i, j int
	w    float64
}

// randomSPDSprings draws a random diagonally dominant spring system whose
// Add sequence can be replayed with rescaled weights, giving matrices of
// one pattern with new values.
func randomSPDSprings(rng *rand.Rand, n int) []spdSpring {
	var ss []spdSpring
	for k := 0; k < n*3; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		ss = append(ss, spdSpring{i, j, 0.1 + rng.Float64()})
	}
	return ss
}

// fillSPD replays the spring sequence into b with weights scaled by s,
// plus a unit anchor per row for strict diagonal dominance.
func fillSPD(b *Builder, n int, ss []spdSpring, s float64) {
	for _, sp := range ss {
		w := sp.w * s
		b.AddSym(sp.i, sp.j, -w)
		b.Add(sp.i, sp.i, w)
		b.Add(sp.j, sp.j, w)
	}
	for i := 0; i < n; i++ {
		b.Add(i, i, 1)
	}
}

// springMatrix builds the spring system ss, its weights scaled by s.
func springMatrix(n int, ss []spdSpring, s float64) *CSR {
	b := NewBuilder(n)
	fillSPD(b, n, ss, s)
	return b.Build()
}

func buildSPD(rng *rand.Rand, n int) (*CSR, []spdSpring) {
	ss := randomSPDSprings(rng, n)
	return springMatrix(n, ss, 1), ss
}

// setValues overwrites m's values with fresh's, a matrix of the same
// pattern: the same-pattern, new-values matrix a cached IC0 pattern
// refactors.
func setValues(t testing.TB, m, fresh *CSR) {
	t.Helper()
	if !slices.Equal(m.rowPtr, fresh.rowPtr) || !slices.Equal(m.cols, fresh.cols) {
		t.Fatal("the rebuilt matrix has a different pattern")
	}
	copy(m.vals, fresh.vals)
}

// refactorMerge is the two-pointer merge kernel Refactor used before the
// dense scatter: each L[i][j] subtracts the products over the columns rows
// i and j share, found by merging the two sorted rows. It is kept as the
// reference the dense kernel must reproduce bit for bit.
func refactorMerge(f *IC0Factor, m *CSR) bool {
	mv := m.vals
	for k, s := range f.src {
		f.vals[k] = mv[s]
	}
	rp, cols, vals, diag := f.rowPtr, f.cols, f.vals, f.diag
	for i := 0; i < f.n; i++ {
		lo, hi := rp[i], rp[i+1]
		for k := lo; k < hi; k++ {
			j := cols[k]
			s := vals[k]
			a, b := lo, rp[j]
			bHi := rp[j+1]
			for a < k && b < bHi {
				switch ca, cb := cols[a], cols[b]; {
				case ca == cb:
					s -= vals[a] * vals[b]
					a++
					b++
				case ca < cb:
					a++
				default:
					b++
				}
			}
			vals[k] = s / diag[j]
		}
		var d float64
		if di := f.dsrc[i]; di >= 0 {
			d = mv[di]
		}
		for k := lo; k < hi; k++ {
			d -= vals[k] * vals[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return false
		}
		diag[i] = math.Sqrt(d)
	}
	return true
}

// scratchClean reports whether f's dense scratch row is all +0, the state
// Refactor must leave it in on every return.
func scratchClean(f *IC0Factor) bool {
	for _, v := range f.w {
		if math.Float64bits(v) != 0 {
			return false
		}
	}
	return true
}

// cliqueSprings draws a clique-model spring system shaped like a placement
// matrix: nets of 2–12 pins over n cells, each expanded into its clique
// with weight 1/(d-1) times a random net weight. nets/n sets the row
// degree (about 50·nets/n stored entries per row).
func cliqueSprings(rng *rand.Rand, n, nets int) []spdSpring {
	var ss []spdSpring
	pins := make([]int, 0, 12)
	for e := 0; e < nets; e++ {
		d := 2 + rng.Intn(11)
		pins = pins[:0]
		for len(pins) < d {
			pins = append(pins, rng.Intn(n))
		}
		w := (0.5 + rng.Float64()) / float64(d-1)
		for a := 0; a < d; a++ {
			for b := a + 1; b < d; b++ {
				if pins[a] != pins[b] {
					ss = append(ss, spdSpring{pins[a], pins[b], w})
				}
			}
		}
	}
	return ss
}

// reweight keeps the springs' (i, j) sequence, and so the pattern, and
// draws fresh weights.
func reweight(rng *rand.Rand, ss []spdSpring) []spdSpring {
	out := make([]spdSpring, len(ss))
	for k, sp := range ss {
		out[k] = spdSpring{sp.i, sp.j, sp.w * (0.25 + 1.5*rng.Float64())}
	}
	return out
}

// TestIC0RefactorMatchesMergeKernel pins the dense-scatter Refactor to the
// merge kernel, entry for entry, on clique-shaped systems with placement's
// row degree, across several value sets on one pattern.
func TestIC0RefactorMatchesMergeKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 4; trial++ {
		n := 200 + rng.Intn(400)
		nets := n/2 + rng.Intn(n)
		ss := cliqueSprings(rng, n, nets)
		m := springMatrix(n, ss, 1)
		if deg := float64(m.NNZ()) / float64(n); deg < 20 || deg > 100 {
			t.Fatalf("trial %d: %.1f stored entries per row, want 20–100", trial, deg)
		}
		f := NewIC0Pattern(m)
		ref := NewIC0Pattern(m)
		for round := 0; round < 4; round++ {
			if round > 0 {
				setValues(t, m, springMatrix(n, reweight(rng, ss), 1))
			}
			ok, refOK := f.Refactor(m), refactorMerge(ref, m)
			if !ok || !refOK {
				t.Fatalf("trial %d round %d: breakdown on an SPD matrix (dense %v, merge %v)",
					trial, round, ok, refOK)
			}
			if !sameFactor(f, ref) {
				t.Fatalf("trial %d round %d: dense kernel differs from the merge kernel", trial, round)
			}
			if !scratchClean(f) {
				t.Fatalf("trial %d round %d: scratch row left dirty", trial, round)
			}
		}
	}
}

func TestIC0RefactorMatchesFreshFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(120)
		m, ss := buildSPD(rng, n)

		f := NewIC0Pattern(m)
		if !f.Refactor(m) {
			t.Fatalf("trial %d: refactor broke down on an SPD matrix", trial)
		}
		fresh := NewIC0(m)
		if fresh == nil {
			t.Fatalf("trial %d: fresh factor broke down", trial)
		}
		if !sameFactor(f, fresh) {
			t.Fatalf("trial %d: pattern+Refactor diverges from one-shot NewIC0", trial)
		}

		// Rescale the weights on the same pattern, refactor the cached
		// pattern, and compare against a factor built from scratch on the
		// new values: bit-identical.
		setValues(t, m, springMatrix(n, ss, 0.5+rng.Float64()))
		if !f.Refactor(m) {
			t.Fatalf("trial %d: refactor broke down after rescaling", trial)
		}
		fresh2 := NewIC0(m)
		if fresh2 == nil {
			t.Fatalf("trial %d: fresh factor broke down after rescaling", trial)
		}
		if !sameFactor(f, fresh2) {
			t.Fatalf("trial %d: refactor-vs-fresh-factor not bit-identical after rescaling", trial)
		}
	}
}

func TestIC0RefactorAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m, _ := buildSPD(rng, 200)
	f := NewIC0Pattern(m)
	allocs := testing.AllocsPerRun(20, func() {
		if !f.Refactor(m) {
			t.Fatal("refactor broke down")
		}
	})
	if allocs != 0 {
		t.Fatalf("Refactor allocates %.1f objects per call, want 0", allocs)
	}
}

func TestIC0SharedFactorMatchesPerSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	n := 300
	m, _ := buildSPD(rng, n)
	b1 := make([]float64, n)
	b2 := make([]float64, n)
	for i := range b1 {
		b1[i] = rng.NormFloat64()
		b2[i] = rng.NormFloat64()
	}

	solve := func(b []float64, f *IC0Factor) ([]float64, CGResult) {
		x := make([]float64, n)
		res, err := (&CGWork{}).Solve(m, x, b, CGOptions{Tol: 1e-10, Factor: f})
		if err != nil {
			t.Fatal(err)
		}
		return x, res
	}

	f := NewIC0(m)
	if f == nil {
		t.Fatal("factorization broke down")
	}
	for _, rhs := range [][]float64{b1, b2} {
		want, wr := solve(rhs, NewIC0(m)) // a fresh factor per solve
		got, gr := solve(rhs, f)          // one factor shared by both solves
		if wr.Precond != IC0 || gr.Precond != IC0 {
			t.Fatalf("effective preconditioners: %v %v, want ic0", wr.Precond, gr.Precond)
		}
		if wr.Iterations != gr.Iterations {
			t.Fatalf("iteration counts differ: %d vs %d", wr.Iterations, gr.Iterations)
		}
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("x[%d] differs bitwise: %v vs %v", i, want[i], got[i])
			}
		}
	}
}

func TestIC0RefactorBreakdownReported(t *testing.T) {
	// A tridiagonal 3×3 pattern, so a breakdown can come at row 0, before
	// any scatter, or at row 1, after L[1][0] went into the scratch row.
	tridiag := func(d0, d1, d2 float64) *CSR {
		b := NewBuilder(3)
		b.AddSym(0, 0, d0)
		b.AddSym(1, 1, d1)
		b.AddSym(2, 2, d2)
		b.AddSym(0, 1, 1)
		b.AddSym(1, 2, 1)
		return b.Build()
	}
	m := tridiag(4, 4, 4)
	f := NewIC0Pattern(m)
	if !f.Refactor(m) {
		t.Fatal("refactor broke down on an SPD matrix")
	}

	for _, bad := range []struct {
		name       string
		d0, d1, d2 float64
	}{
		{"negative-definite", -4, -4, -4}, // breaks down at row 0
		{"indefinite", 4, -4, 4},          // breaks down at row 1, after L[1][0]
	} {
		// Bad values on the same pattern: Refactor must report breakdown,
		// matching NewIC0's nil on the same matrix.
		setValues(t, m, tridiag(bad.d0, bad.d1, bad.d2))
		if f.Refactor(m) {
			t.Fatalf("%s: refactor succeeded", bad.name)
		}
		if NewIC0(m) != nil {
			t.Fatalf("%s: NewIC0 succeeded", bad.name)
		}
		if !scratchClean(f) {
			t.Fatalf("%s: breakdown left the scratch row dirty", bad.name)
		}

		// SPD values again: the factor that just broke down must refactor
		// to exactly what a fresh factorization gives.
		setValues(t, m, tridiag(4, 5, 6))
		if !f.Refactor(m) {
			t.Fatalf("%s: refactor broke down on the SPD values", bad.name)
		}
		fresh := NewIC0(m)
		if fresh == nil || !sameFactor(f, fresh) {
			t.Fatalf("%s: refactor after breakdown differs from a fresh factor", bad.name)
		}
	}
}

func TestIC0MissingDiagonalIsBreakdown(t *testing.T) {
	b := NewBuilder(2)
	b.AddSym(0, 1, 1) // no diagonal entries at all
	m := b.Build()
	if NewIC0(m) != nil {
		t.Fatal("NewIC0 succeeded with no stored diagonal")
	}
}

// TestPrecondResolveAndParse pins the tag a result reports: the factor
// passed to CGWork.Solve decides the preconditioner, so there is nothing to
// resolve, only String, the text round trip and the numeric values.
func TestPrecondResolveAndParse(t *testing.T) {
	for p, want := range map[Preconditioner]string{0: "none", Jacobi: "jacobi", IC0: "ic0"} {
		if text, err := p.MarshalText(); err != nil || string(text) != want || p.String() != want {
			t.Errorf("%d: MarshalText %q, %v and String %q, want %q", p, text, err, p.String(), want)
		}
		back := Preconditioner(-1)
		if err := back.UnmarshalText([]byte(want)); err != nil || back != p {
			t.Errorf("UnmarshalText(%q) = %d, %v, want %d", want, back, err, p)
		}
	}
	var bad Preconditioner
	if err := bad.UnmarshalText([]byte("ilu")); err == nil {
		t.Error("UnmarshalText accepted an unknown tag")
	}
	if Jacobi != 1 || IC0 != 2 || Preconditioner(0).String() != "none" {
		t.Errorf("Jacobi = %d, IC0 = %d, zero %q; span attributes record 1 and 2, and no solve is none", Jacobi, IC0, Preconditioner(0))
	}
}

// BenchmarkIC0Refactor times one numeric refactorization of a clique-shaped
// 5000-row system (about 90 stored entries per row, like kplace-5k's
// placement matrix); sparse random matrices would understate the kernel.
func BenchmarkIC0Refactor(b *testing.B) {
	rng := rand.New(rand.NewSource(46))
	n := 5000
	bb := NewBuilder(n)
	fillSPD(bb, n, cliqueSprings(rng, n, 7*n/4), 1)
	m := bb.Build()
	f := NewIC0Pattern(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !f.Refactor(m) {
			b.Fatal("refactor broke down")
		}
	}
	b.ReportMetric(float64(m.NNZ())/float64(n), "nnz/row")
}
