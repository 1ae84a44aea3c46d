// Package assign solves the linear assignment problem with the Hungarian
// algorithm (Jonker-style O(n³) shortest augmenting paths). The detailed
// placer uses it for independent-set matching: reassigning a group of
// interchangeable cells to their candidate positions at exactly minimal
// total cost, the optimization core of network-flow final placers like
// Domino [17].
package assign

import "math"

// Solve returns, for the square cost matrix cost[i][j] (cost of assigning
// row i to column j), the column assigned to each row, minimizing the total
// cost. All rows are assigned. Infinite costs mark forbidden pairs; if no
// perfect finite matching exists the result contains -1 entries.
func Solve(cost [][]float64) []int {
	var s Solver
	return s.Solve(cost)
}

// Solver solves assignment problems in buffers it keeps between calls, so
// repeated solves allocate only when a larger problem arrives. The zero
// value is ready to use; a Solver is not safe for concurrent use.
type Solver struct {
	u, v, minv    []float64
	matchCol, way []int
	used          []bool
	out           []int
}

// Solve is the package-level Solve. The result aliases s and is valid
// until the next call.
func (s *Solver) Solve(cost [][]float64) []int {
	n := len(cost)
	if n == 0 {
		return nil
	}
	// Jonker–Volgenant style: potentials u, v; matchCol[j] = row matched
	// to column j. 1-indexed internals with a virtual column 0.
	s.u = zeroed(s.u, n+1)
	s.v = zeroed(s.v, n+1)
	s.matchCol = zeroed(s.matchCol, n+1)
	s.way = zeroed(s.way, n+1)
	s.minv = zeroed(s.minv, n+1)
	s.used = zeroed(s.used, n+1)
	u, v, matchCol, way, minv, used := s.u, s.v, s.matchCol, s.way, s.minv, s.used
	for i := 1; i <= n; i++ {
		matchCol[0] = i
		j0 := 0
		clear(used)
		for j := range minv {
			minv[j] = math.Inf(1)
		}
		for {
			used[j0] = true
			i0 := matchCol[j0]
			delta := math.Inf(1)
			j1 := -1
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			if j1 < 0 || math.IsInf(delta, 1) {
				// No augmenting path with finite cost: the remaining rows
				// cannot be assigned.
				return s.result(n)
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[matchCol[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if matchCol[j0] == 0 {
				break
			}
		}
		// Augment along the path.
		for j0 != 0 {
			j1 := way[j0]
			matchCol[j0] = matchCol[j1]
			j0 = j1
		}
	}
	return s.result(n)
}

// result reads each row's column off matchCol.
func (s *Solver) result(n int) []int {
	out := zeroed(s.out, n)
	s.out = out
	for i := range out {
		out[i] = -1
	}
	for j := 1; j <= n; j++ {
		if r := s.matchCol[j]; r >= 1 && r <= n {
			out[r-1] = j - 1
		}
	}
	return out
}

// zeroed returns buf resized to n zero values, reallocating only when its
// capacity is short.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// Cost sums the matrix cost of an assignment (math.Inf(1) if any row is
// unassigned or forbidden).
func Cost(cost [][]float64, assignment []int) float64 {
	var s float64
	for i, j := range assignment {
		if j < 0 {
			return math.Inf(1)
		}
		s += cost[i][j]
	}
	return s
}
