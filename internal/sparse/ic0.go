package sparse

import "math"

// IC0Factor is a zero-fill incomplete Cholesky factorization: L has exactly
// the sparsity of the matrix's lower triangle and L·Lᵀ ≈ M. GORDIAN-era
// analytical placers ran conjugate gradients with exactly this
// preconditioner (ICCG); it typically halves the iteration count of Jacobi
// on placement matrices at the cost of a sequential triangular solve per
// iteration.
//
// The factor is split into a pattern and its values: NewIC0Pattern records
// the strict-lower pattern and the value-source mapping once, and Refactor
// re-derives the numeric factor from the matrix's current values with no
// allocation and no position lookups. Placement matrices are refilled
// (same pattern, new spring weights) on every transformation, so the
// steady state is one Refactor per assembly.
//
// Refactor eliminates each row through a dense scatter: the finished
// entries of the row being eliminated sit in the scratch row w, indexed by
// column, so each dot product runs over the other row alone, without
// branches. w is all zero between rows and on every return from Refactor.
// Refactor writes the factor and w, so it must not run concurrently with
// itself or with Apply on one factor; Apply only reads, so any number of
// solves may share a finished factor.
type IC0Factor struct {
	n      int
	rowPtr []int32
	cols   []int32 // column indices, strictly below the diagonal, ascending
	vals   []float64
	diag   []float64 // L's diagonal entries

	// src maps factor entry k to the matrix value index it refills from;
	// dsrc maps row i to its diagonal's matrix value index (-1 when the
	// row has no stored diagonal, which Refactor reports as a breakdown).
	src  []int32
	dsrc []int32

	w []float64 // dense scratch row for Refactor; all zero between rows
}

// NewIC0Pattern records the strict-lower-triangle pattern of m and the
// value-source mapping Refactor scatters from. The pattern stays valid for
// any matrix with m's rowPtr and cols, such as m itself after its values
// are rewritten in place; the values are free to change.
func NewIC0Pattern(m *CSR) *IC0Factor {
	n := m.N()
	f := &IC0Factor{
		n:      n,
		rowPtr: make([]int32, n+1),
		diag:   make([]float64, n),
		dsrc:   make([]int32, n),
		w:      make([]float64, n),
	}
	for i := 0; i < n; i++ {
		f.dsrc[i] = -1
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			switch c := m.cols[k]; {
			case c < i:
				f.cols = append(f.cols, int32(c))
				f.src = append(f.src, int32(k))
			case c == i:
				f.dsrc[i] = int32(k)
			}
		}
		f.rowPtr[i+1] = int32(len(f.cols))
	}
	f.vals = make([]float64, len(f.cols))
	return f
}

// NewIC0 factors m in one shot. Returns nil when the factorization breaks
// down (a non-positive pivot), in which case the caller should fall back to
// Jacobi preconditioning.
func NewIC0(m *CSR) *IC0Factor {
	f := NewIC0Pattern(m)
	if !f.Refactor(m) {
		return nil
	}
	return f
}

// Refactor recomputes the numeric factor from m's current values through
// the recorded pattern. m must have the exact sparsity NewIC0Pattern saw
// (identical rowPtr and cols); only the values may differ. It reports
// false on breakdown (a non-positive or NaN pivot) — the factor's values
// are then unspecified and the caller must fall back to Jacobi until the
// next refill. Refactor allocates nothing.
//
// Each entry L[i][j] subtracts the products L[i][t]·L[j][t] over row j's
// columns t in ascending order, reading L[i][t] from the scratch row w.
// Where row i has no column t, w[t] is +0 and the product is ±0; a row j
// of a factor still being built holds finite entries (a non-finite one
// fails row j's own pivot first), so such a term leaves the running sum
// unchanged unless that sum is -0. Builder.Build and qp's assembler sum
// every stored value from +0, and such a sum is never -0, so on the
// matrices they produce the factor is bit-identical to one that visits
// only the shared columns.
func (f *IC0Factor) Refactor(m *CSR) bool {
	// Load the raw strict-lower values; row i's raw values are consumed
	// exactly when row i is eliminated, and rows j < i already hold L.
	mv := m.vals
	for k, s := range f.src {
		f.vals[k] = mv[s]
	}
	rp, cols, vals, diag, w := f.rowPtr, f.cols, f.vals, f.diag, f.w
	for i := 0; i < f.n; i++ {
		lo, hi := rp[i], rp[i+1]
		// Off-diagonal entries of row i, in ascending column order; each
		// finished L[i][j] is scattered into w[j] for the entries after it.
		for k := lo; k < hi; k++ {
			j := cols[k]
			s := vals[k]
			jc := cols[rp[j]:rp[j+1]]
			jv := vals[rp[j]:rp[j+1]]
			jv = jv[:len(jc)] // lets the compiler drop jv's bounds check
			for b, c := range jc {
				s -= w[c] * jv[b]
			}
			// diag[j] is the square root of a pivot that passed d > 0.
			l := s / diag[j]
			vals[k] = l
			w[j] = l
		}
		// Diagonal pivot; clearing w here restores the all-zero invariant
		// before any return.
		var d float64
		if di := f.dsrc[i]; di >= 0 {
			d = mv[di]
		}
		for k := lo; k < hi; k++ {
			d -= vals[k] * vals[k]
			w[cols[k]] = 0
		}
		if d <= 0 || math.IsNaN(d) {
			return false
		}
		diag[i] = math.Sqrt(d)
	}
	return true
}

// N returns the factored dimension.
func (f *IC0Factor) N() int { return f.n }

// Apply solves L·Lᵀ·z = r (the preconditioner application). It only reads
// the factor, so concurrent solves (the x/y axis pair) may share one.
// The slice headers are hoisted and each row is cut once as a prefix of
// the factor's storage, so the inner loops keep only the bounds check of
// the indirect z[j]. The forward solve subtracts row i's products in
// ascending column order and divides by the pivot; the backward solve
// divides z[i] by the pivot first and then scatters it into the earlier
// entries, in ascending column order.
func (f *IC0Factor) Apply(z, r []float64) {
	n := f.n
	rp, cols, vals, diag := f.rowPtr[:n+1], f.cols, f.vals, f.diag[:n]
	z, r = z[:n], r[:n]
	// Forward: L·y = r. Rows are stored back to back, so k runs on from
	// the end of row i−1 into row i.
	k := 0
	for i := 0; i < n; i++ {
		c := cols[:rp[i+1]]
		v := vals[:len(c)]
		s := r[i]
		for ; k < len(c); k++ {
			s -= v[k] * z[c[k]]
		}
		z[i] = s / diag[i]
	}
	// Backward: Lᵀ·z = y. Row i holds only columns below i, so z[i] is
	// final before its scatter.
	hi := rp[n]
	for i := n - 1; i >= 0; i-- {
		zi := z[i] / diag[i]
		z[i] = zi
		lo := rp[i]
		c := cols[:hi]
		v := vals[:len(c)]
		for k := int(lo); k < len(c); k++ {
			z[c[k]] -= v[k] * zi
		}
		hi = lo
	}
}
