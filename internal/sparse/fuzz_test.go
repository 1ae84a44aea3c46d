package sparse

import (
	"math"
	"testing"
)

// decodeTriplets derives a matrix dimension and a triplet sequence from raw
// fuzz bytes: 3 bytes per triplet (row, col, signed quarter-integer value),
// so the corpus freely exercises duplicates, zeros, and negative weights.
func decodeTriplets(data []byte) (n int, is, js []int, vs []float64) {
	if len(data) == 0 {
		return 1, nil, nil, nil
	}
	n = 1 + int(data[0]&7)
	data = data[1:]
	for len(data) >= 3 {
		is = append(is, int(data[0])%n)
		js = append(js, int(data[1])%n)
		vs = append(vs, float64(int8(data[2]))/4)
		data = data[3:]
	}
	return n, is, js, vs
}

func fillBuilder(n int, is, js []int, vs []float64) *Builder {
	b := NewBuilder(n)
	for k := range is {
		b.Add(is[k], js[k], vs[k])
	}
	return b
}

// sameCSR reports bitwise equality of pattern and values.
func sameCSR(a, b *CSR) bool {
	if a.n != b.n || len(a.cols) != len(b.cols) {
		return false
	}
	for i := range a.rowPtr {
		if a.rowPtr[i] != b.rowPtr[i] {
			return false
		}
	}
	for k := range a.cols {
		if a.cols[k] != b.cols[k] ||
			math.Float64bits(a.vals[k]) != math.Float64bits(b.vals[k]) {
			return false
		}
	}
	return true
}

// FuzzSymbolicRefill drives the symbolic-assembly fast path against the
// one-shot Build on arbitrary triplet streams. Invariants:
//
//  1. Reset + re-add + Refill reproduces the symbolically built matrix
//     bit-for-bit (the hot-path contract qp.Assemble relies on).
//  2. Refill with a second value set is bit-identical to a fresh
//     BuildSymbolic over those values: the pattern depends only on the
//     insertion sequence.
//  3. Every entry Build keeps appears in the symbolic pattern, and all
//     At lookups agree within roundoff (Build may drop exact-zero merges
//     and sums duplicates in sorted rather than insertion order).
//  4. Changing the triplet shape makes Refill report false instead of
//     silently scattering into the wrong slots.
//  5. IC0 refactorization through a cached pattern is bit-identical to a
//     fresh factorization of the refilled matrix (the hot-path contract
//     qp's preconditioner cache relies on) and to the two-pointer merge
//     kernel, on an SPD symmetrization of the fuzzed triplets.
//  6. MulVec and Apply on that matrix and factor are bit-identical to
//     their reference kernels, mulVecRef and applyRef.
func FuzzSymbolicRefill(f *testing.F) {
	f.Add([]byte{3, 0, 1, 8, 1, 0, 8, 2, 2, 16})           // small symmetric-ish
	f.Add([]byte{0, 0, 0, 4, 0, 0, 252})                   // duplicate that cancels to zero
	f.Add([]byte{7, 5, 5, 1, 5, 5, 1, 3, 5, 255, 5, 3, 7}) // duplicates + off-diagonals
	f.Fuzz(func(t *testing.T, data []byte) {
		n, is, js, vs := decodeTriplets(data)

		m1 := fillBuilder(n, is, js, vs).Build()
		b := fillBuilder(n, is, js, vs)
		m2, sym := b.BuildSymbolic()

		// (1) Reset, re-add the same triplets, Refill: bit-identical.
		snapshot := &CSR{n: m2.n, rowPtr: m2.rowPtr, cols: m2.cols,
			vals: append([]float64(nil), m2.vals...)}
		b.Reset()
		for k := range is {
			b.Add(is[k], js[k], vs[k])
		}
		if !sym.Refill(m2, b) {
			t.Fatal("Refill rejected the identical triplet shape")
		}
		if !sameCSR(m2, snapshot) {
			t.Fatal("Refill with identical values is not bit-identical to BuildSymbolic")
		}

		// (2) Refill with different values == fresh BuildSymbolic of them.
		vs2 := make([]float64, len(vs))
		for k, v := range vs {
			vs2[k] = 2*v + 0.25
		}
		b.Reset()
		for k := range is {
			b.Add(is[k], js[k], vs2[k])
		}
		if !sym.Refill(m2, b) {
			t.Fatal("Refill rejected same-shaped triplets with new values")
		}
		m3, _ := fillBuilder(n, is, js, vs2).BuildSymbolic()
		if !sameCSR(m2, m3) {
			t.Fatal("Refill with new values diverges from fresh BuildSymbolic")
		}

		// (3) Fresh Build agrees with the symbolic matrix entrywise.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				got, want := snapshot.At(i, j), m1.At(i, j)
				if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
					t.Fatalf("At(%d,%d): symbolic %g vs Build %g", i, j, got, want)
				}
			}
		}
		if m1.NNZ() > snapshot.NNZ() {
			t.Fatalf("Build stores %d entries, symbolic pattern only %d",
				m1.NNZ(), snapshot.NNZ())
		}

		// (4) A shape change must be detected.
		b.Reset()
		for k := range is {
			b.Add(is[k], js[k], vs[k])
		}
		b.Add(0, 0, 1) // extra triplet: row 0 is now longer than the pattern
		if sym.Refill(m2, b) {
			t.Fatal("Refill accepted a longer triplet sequence")
		}

		// (5) IC0 refactorization through a cached pattern == fresh factor
		// of the refilled matrix, bitwise. The fuzzed triplets are
		// symmetrized into a diagonally dominant SPD spring system so the
		// factorization is expected to exist; if it still breaks down, the
		// cached pattern and the fresh factorization must at least agree
		// that it did.
		addSPD := func(sb *Builder, scale float64) {
			for k := range is {
				if is[k] == js[k] {
					continue
				}
				w := (math.Abs(vs[k]) + 0.25) * scale
				sb.AddSym(is[k], js[k], -w)
				sb.Add(is[k], is[k], w)
				sb.Add(js[k], js[k], w)
			}
			for i := 0; i < n; i++ {
				sb.Add(i, i, 1)
			}
		}
		sb := NewBuilder(n)
		addSPD(sb, 1)
		sm, ssym := sb.BuildSymbolic()
		pat := NewIC0Pattern(sm)
		ref := NewIC0Pattern(sm)
		for round, scale := range []float64{1, 1.75} {
			if round > 0 {
				sb.Reset()
				addSPD(sb, scale)
				if !ssym.Refill(sm, sb) {
					t.Fatal("SPD refill rejected")
				}
			}
			ok := pat.Refactor(sm)
			fresh := NewIC0(sm)
			if ok != (fresh != nil) {
				t.Fatalf("round %d: Refactor ok=%v but NewIC0 nil=%v", round, ok, fresh == nil)
			}
			if refOK := refactorMerge(ref, sm); ok != refOK {
				t.Fatalf("round %d: Refactor ok=%v but merge kernel ok=%v", round, ok, refOK)
			}
			if !scratchClean(pat) {
				t.Fatalf("round %d: scratch row left dirty", round)
			}
			if !ok {
				continue
			}
			if !sameFactor(pat, fresh) {
				t.Fatalf("round %d: refactor-vs-fresh-factor not bit-identical", round)
			}
			if !sameFactor(pat, ref) {
				t.Fatalf("round %d: dense kernel differs from the merge kernel", round)
			}
			// The factor must actually precondition: applying it to a
			// finite vector stays finite.
			r := make([]float64, n)
			z := make([]float64, n)
			for i := range r {
				r[i] = float64(i%5) - 2
			}
			pat.Apply(z, r)
			for i, v := range z {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("round %d: Apply produced non-finite z[%d]=%v", round, i, v)
				}
			}

			// (6) The kernels match their references bit for bit.
			want := make([]float64, n)
			applyRef(pat, want, r)
			if !sameBits(z, want) {
				t.Fatalf("round %d: Apply differs from applyRef", round)
			}
			sm.MulVec(z, r)
			mulVecRef(sm, want, r)
			if !sameBits(z, want) {
				t.Fatalf("round %d: MulVec differs from mulVecRef", round)
			}
		}
	})
}
