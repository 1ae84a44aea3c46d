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

// FuzzIC0Refactor drives the IC0 refactorization on arbitrary triplet
// streams, symmetrized into a diagonally dominant SPD spring system so the
// factorization is expected to exist. The system is built twice, the
// second time with its spring weights scaled: same pattern, new values.
// Invariants, on each build:
//
//  1. Refactor of the first build's cached pattern is bit-identical to a
//     fresh NewIC0 of the matrix (the contract qp's preconditioner cache
//     relies on) and to the two-pointer merge kernel; if the
//     factorization still breaks down, all three agree that it did.
//  2. MulVec and Apply on that matrix and factor are bit-identical to
//     their reference kernels, mulVecRef and applyRef.
func FuzzIC0Refactor(f *testing.F) {
	f.Add([]byte{3, 0, 1, 8, 1, 0, 8, 2, 2, 16})           // small symmetric-ish
	f.Add([]byte{0, 0, 0, 4, 0, 0, 252})                   // 1×1: only diagonal triplets, which spd skips
	f.Add([]byte{7, 5, 5, 1, 5, 5, 1, 3, 5, 255, 5, 3, 7}) // duplicates + off-diagonals
	f.Fuzz(func(t *testing.T, data []byte) {
		n, is, js, vs := decodeTriplets(data)
		spd := func(scale float64) *CSR {
			sb := NewBuilder(n)
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
			return sb.Build()
		}
		sm := spd(1)
		pat := NewIC0Pattern(sm)
		ref := NewIC0Pattern(sm)
		for round, scale := range []float64{1, 1.75} {
			if round > 0 {
				// (1) on new values: the rebuilt system keeps the pattern.
				setValues(t, sm, spd(scale))
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

			// (2) The kernels match their references bit for bit.
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
