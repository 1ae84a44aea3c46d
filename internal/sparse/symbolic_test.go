package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// fillRandomSPDish adds a random symmetric diagonally-augmented pattern with
// duplicate entries, the shape qp assembly produces.
func fillRandomSPDish(b *Builder, rng *rand.Rand, n, nnz int) {
	for i := 0; i < n; i++ {
		b.Add(i, i, 1+rng.Float64())
	}
	for k := 0; k < nnz; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		// AddSym adds the off-diagonals and the compensating diagonal, and
		// repeats produce duplicate triplets — both paths must merge them.
		b.AddSym(i, j, rng.NormFloat64())
	}
}

func denseOf(m *CSR) []float64 {
	n := m.N()
	d := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d[i*n+j] = m.At(i, j)
		}
	}
	return d
}

func TestBuildSymbolicMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 5, 40} {
		legacy := NewBuilder(n)
		cached := NewBuilder(n)
		fillRandomSPDish(legacy, rng, n, 4*n)
		cached.rows = append([][]entry(nil), legacy.rows...) // identical triplets

		want := denseOf(legacy.Build())
		m, _ := cached.BuildSymbolic()
		got := denseOf(m)
		for i := range want {
			if d := math.Abs(got[i] - want[i]); d > 1e-12*(1+math.Abs(want[i])) {
				t.Fatalf("n=%d: BuildSymbolic differs at %d: %g vs %g", n, i, got[i], want[i])
			}
		}
	}
}

func TestRefillMatchesFreshBuild(t *testing.T) {
	n := 30
	// assemble replays a fixed triplet sequence (the "topology") with values
	// scaled per round — the same shape qp re-assembly has: identical
	// insertion order, different spring weights.
	assemble := func(b *Builder, scale float64) {
		rng := rand.New(rand.NewSource(22))
		for i := 0; i < n; i++ {
			b.Add(i, i, scale*(1+rng.Float64()))
		}
		for k := 0; k < 3*n; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			b.AddSym(i, j, scale*rng.NormFloat64())
		}
	}

	b := NewBuilder(n)
	assemble(b, 1)
	m, sym := b.BuildSymbolic()

	for round := 0; round < 3; round++ {
		scale := 2 + float64(round)
		b.Reset()
		assemble(b, scale)
		if !sym.Refill(m, b) {
			t.Fatalf("round %d: refill refused an unchanged pattern", round)
		}
		legacy := NewBuilder(n)
		assemble(legacy, scale)
		want := denseOf(legacy.Build())
		got := denseOf(m)
		for i := range want {
			if d := math.Abs(got[i] - want[i]); d > 1e-12*(1+math.Abs(want[i])) {
				t.Fatalf("round %d: refill differs at %d: %g vs %g", round, i, got[i], want[i])
			}
		}
	}
}

func TestRefillSamePatternIsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 25
	b := NewBuilder(n)
	fillRandomSPDish(b, rng, n, 3*n)
	m, sym := b.BuildSymbolic()
	before := append([]float64(nil), m.vals...)

	// Replay the identical triplet sequence; the refill must reproduce the
	// exact same values (this is what keeps hot and cold place.Step aligned).
	replay := NewBuilder(n)
	replay.rows = append([][]entry(nil), b.rows...)
	if !sym.Refill(m, replay) {
		t.Fatal("refill with identical triplets refused")
	}
	for i := range before {
		if m.vals[i] != before[i] {
			t.Fatalf("refill not bit-identical at %d: %g vs %g", i, m.vals[i], before[i])
		}
	}
}

func TestRefillRejectsPatternChange(t *testing.T) {
	n := 10
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 1)
	}
	b.AddSym(0, 1, -0.5)
	m, sym := b.BuildSymbolic()

	other := NewBuilder(n)
	for i := 0; i < n; i++ {
		other.Add(i, i, 1)
	}
	other.AddSym(0, 2, -0.5) // different off-diagonal: pattern mismatch
	if sym.Refill(m, other) {
		t.Fatal("refill accepted a changed sparsity pattern")
	}
}

func TestBuilderResetKeepsCapacity(t *testing.T) {
	b := NewBuilder(4)
	b.Add(0, 0, 1)
	b.Add(3, 2, 2)
	b.Reset()
	for i, r := range b.rows {
		if len(r) != 0 {
			t.Fatalf("row %d not cleared: %v", i, r)
		}
	}
	b.Add(0, 0, 5)
	m := b.Build()
	if got := m.At(0, 0); got != 5 {
		t.Fatalf("post-reset build: At(0,0) = %g, want 5", got)
	}
	if got := m.At(3, 2); got != 0 {
		t.Fatalf("post-reset build kept stale entry: At(3,2) = %g", got)
	}
}

func benchMatrix(n int) *CSR {
	rng := rand.New(rand.NewSource(99))
	b := NewBuilder(n)
	fillRandomSPDish(b, rng, n, 6*n)
	return b.Build()
}

func BenchmarkMulVec(b *testing.B) {
	m := benchMatrix(20000)
	x := make([]float64, m.N())
	dst := make([]float64, m.N())
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(dst, x)
	}
}

func BenchmarkDiag(b *testing.B) {
	m := benchMatrix(20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Diag()
	}
}

func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(100))
	n := 5000
	tpl := NewBuilder(n)
	fillRandomSPDish(tpl, rng, n, 6*n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bb := NewBuilder(n)
		bb.rows = append([][]entry(nil), tpl.rows...)
		_ = bb.Build()
	}
}

func BenchmarkRefill(b *testing.B) {
	rng := rand.New(rand.NewSource(100))
	n := 5000
	tpl := NewBuilder(n)
	fillRandomSPDish(tpl, rng, n, 6*n)
	m, sym := tpl.BuildSymbolic()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !sym.Refill(m, tpl) {
			b.Fatal("refill refused")
		}
	}
}
