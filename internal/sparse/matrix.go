// Package sparse implements the sparse linear algebra the placer needs:
// symmetric positive-definite matrices in compressed sparse row form, a
// zero-fill incomplete Cholesky (IC0) factor, and the preconditioned
// conjugate gradient solver the paper's §4.1 calls for ("a conjugate
// gradient approach with preconditioning").
package sparse

import (
	"fmt"
	"math"
	"sort"
)

// Builder accumulates matrix entries in triplet form. Duplicate (row,col)
// entries are summed, which makes assembling clique models trivial.
type Builder struct {
	n    int
	rows [][]entry
}

type entry struct {
	col int
	val float64
}

// NewBuilder creates a builder for an n×n matrix.
func NewBuilder(n int) *Builder {
	return &Builder{n: n, rows: make([][]entry, n)}
}

// N returns the matrix dimension.
func (b *Builder) N() int { return b.n }

// Add accumulates v into entry (i, j).
func (b *Builder) Add(i, j int, v float64) {
	if i < 0 || i >= b.n || j < 0 || j >= b.n {
		panic(fmt.Sprintf("sparse: Add(%d,%d) out of range for n=%d", i, j, b.n))
	}
	b.rows[i] = append(b.rows[i], entry{j, v})
}

// AddSym accumulates v into (i, j) and (j, i); for i == j it adds once.
func (b *Builder) AddSym(i, j int, v float64) {
	b.Add(i, j, v)
	if i != j {
		b.Add(j, i, v)
	}
}

// Build compacts the triplets into CSR form, merging duplicates and dropping
// exact zeros.
func (b *Builder) Build() *CSR {
	m := &CSR{n: b.n, rowPtr: make([]int, b.n+1)}
	nnz := 0
	for _, r := range b.rows {
		nnz += len(r)
	}
	m.cols = make([]int, 0, nnz)
	m.vals = make([]float64, 0, nnz)
	for i, r := range b.rows {
		sort.Slice(r, func(a, c int) bool { return r[a].col < r[c].col })
		for k := 0; k < len(r); {
			j := r[k].col
			v := 0.0
			for ; k < len(r) && r[k].col == j; k++ {
				v += r[k].val
			}
			if v != 0 {
				m.cols = append(m.cols, j)
				m.vals = append(m.vals, v)
			}
		}
		m.rowPtr[i+1] = len(m.cols)
	}
	return m
}

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	n      int
	rowPtr []int
	cols   []int
	vals   []float64
}

// NewCSR wraps a pattern assembled elsewhere: row i holds the columns
// cols[rowPtr[i]:rowPtr[i+1]], ascending, with their values at the same
// positions of vals. The matrix keeps all three slices, so an assembler
// that owns the pattern may rewrite vals in place between solves.
func NewCSR(rowPtr, cols []int, vals []float64) *CSR {
	if len(rowPtr) == 0 || len(cols) != len(vals) || rowPtr[len(rowPtr)-1] != len(cols) {
		panic("sparse: NewCSR pattern mismatch")
	}
	return &CSR{n: len(rowPtr) - 1, rowPtr: rowPtr, cols: cols, vals: vals}
}

// N returns the matrix dimension.
func (m *CSR) N() int { return m.n }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.vals) }

// At returns entry (i, j). O(log row degree).
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	k := lo + sort.SearchInts(m.cols[lo:hi], j)
	if k < hi && m.cols[k] == j {
		return m.vals[k]
	}
	return 0
}

// Row returns row i's column indices (ascending) and values. Both slices
// alias the matrix storage and must not be modified.
func (m *CSR) Row(i int) (cols []int, vals []float64) {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	return m.cols[lo:hi], m.vals[lo:hi]
}

// MulVec computes dst = M·x. dst and x must have length N and not alias.
// The row bounds and slice headers are hoisted and each row's column and
// value slices are cut once, so the inner loop keeps only the bounds
// check of the gathered x[j]; a row's products are summed in ascending
// column order. It runs serially: the placer calls it from both axis
// solves at once, one on each par.Fork lane, so a row fan-out would only
// compete with the other axis.
func (m *CSR) MulVec(dst, x []float64) {
	n := m.n
	if len(dst) != n || len(x) != n {
		panic("sparse: MulVec dimension mismatch")
	}
	rp, cols, vals := m.rowPtr[:n+1], m.cols, m.vals
	lo := rp[0]
	for i := range dst {
		hi := rp[i+1]
		c := cols[lo:hi]
		v := vals[lo:hi]
		v = v[:len(c)] // lets the compiler drop v's bounds check
		s := 0.0
		for k, j := range c {
			s += v[k] * x[j]
		}
		dst[i] = s
		lo = hi
	}
}

// Diag extracts the diagonal into a new slice.
func (m *CSR) Diag() []float64 {
	d := make([]float64, m.n)
	m.DiagInto(d)
	return d
}

// DiagInto writes the diagonal into d (length N) in one pass over the row
// structure: columns are sorted within each row, so the scan stops at the
// first entry at or past the diagonal. A row with no stored diagonal
// gets 0.
func (m *CSR) DiagInto(d []float64) {
	for i := 0; i < m.n; i++ {
		d[i] = 0
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			if c := m.cols[k]; c >= i {
				if c == i {
					d[i] = m.vals[k]
				}
				break
			}
		}
	}
}

// IsSymmetric reports whether the matrix equals its transpose to within tol.
func (m *CSR) IsSymmetric(tol float64) bool {
	for i := 0; i < m.n; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			j := m.cols[k]
			if math.Abs(m.vals[k]-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// RowDiagonallyDominant reports whether every row's diagonal entry is at
// least the sum of absolute off-diagonals minus tol. Quadratic placement
// matrices with at least one fixed connection per connected component are
// weakly dominant with strict dominance in anchored rows, which guarantees
// positive definiteness.
func (m *CSR) RowDiagonallyDominant(tol float64) bool {
	for i := 0; i < m.n; i++ {
		var diag, off float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			if m.cols[k] == i {
				diag = m.vals[k]
			} else {
				off += math.Abs(m.vals[k])
			}
		}
		if diag+tol < off {
			return false
		}
	}
	return true
}

// Vector helpers shared by the solver.

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of a.
func Norm2(a []float64) float64 { return math.Sqrt(Dot(a, a)) }

// Axpy computes dst[i] += alpha * x[i].
func Axpy(dst []float64, alpha float64, x []float64) {
	for i := range dst {
		dst[i] += alpha * x[i]
	}
}
