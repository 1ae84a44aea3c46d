package legalize

import (
	"math"
	"slices"
	"sort"

	"repro/internal/assign"
	"repro/internal/geom"
	"repro/internal/netlist"
)

// globalSwap performs Domino-style cross-row improvement: every cell is
// driven toward its optimal region (the median position of its nets'
// bounding boxes) by swapping it with a similar-width cell near that spot
// when the swap shortens the incident wire length. Segments are re-clumped
// after each pass to restore exact legality. Returns the number of accepted
// swaps.
func (st *passState) globalSwap(passes int) int {
	st.bindSegOf()
	accepted := 0
	for pass := 0; pass < passes; pass++ {
		for _, s := range st.segs {
			s.xs = slices.Grow(s.xs[:0], len(s.cells))
			for _, ci := range s.cells {
				s.xs = append(s.xs, st.boxes.pos[ci].X)
			}
		}
		moved := 0
		for _, s := range st.segs {
			// Iterate over a copy: swaps mutate segment membership.
			st.sc.cells = append(st.sc.cells[:0], s.cells...)
			for _, ci := range st.sc.cells {
				if st.segOf[ci] != s {
					continue // already moved this pass
				}
				if st.tryGlobalMove(ci) {
					moved++
				}
			}
		}
		st.clump()
		accepted += moved
		if moved == 0 {
			break
		}
	}
	return accepted
}

// optimalPoint returns the median-of-bounding-box position that minimizes
// the HPWL contribution of the one cell staged in s, the classic "optimal
// region" center: the staged boxes are its nets' boxes without it. A cell
// whose nets have no other pin stays at pos.
func optimalPoint(s *staging, sc *scratch, pos geom.Point) geom.Point {
	xs, ys := sc.xs[:0], sc.ys[:0]
	for _, sn := range s.net {
		if sn.empty() {
			continue
		}
		xs = append(xs, sn.box.Lo.X, sn.box.Hi.X)
		ys = append(ys, sn.box.Lo.Y, sn.box.Hi.Y)
	}
	sc.xs, sc.ys = xs, ys
	if len(xs) == 0 {
		return pos
	}
	sort.Float64s(xs)
	sort.Float64s(ys)
	return geom.Point{X: xs[len(xs)/2], Y: ys[len(ys)/2]}
}

// tryGlobalMove relocates ci toward its optimal point via the best swap
// with a width-compatible cell there. ci is staged once: the stage gives
// the optimal point and is shared by every candidate's pricing.
func (st *passState) tryGlobalMove(ci int) bool {
	nl, sc := st.nl, &st.sc
	st.boxes.stage(&sc.base, []int{ci})
	opt := optimalPoint(&sc.base, sc, nl.Cells[ci].Pos)
	// Candidate segments: the optimal row and its neighbors.
	row := nl.Region.RowAt(opt.Y)
	reach := 4*nl.Cells[ci].W + 2
	best, bestSlot := -1, 0
	bestDelta := -1e-12
	for r := row - 1; r <= row+1; r++ {
		if r < 0 || r >= len(st.byRow) {
			continue
		}
		for _, s := range st.byRow[r] {
			if opt.X < s.X0-1 || opt.X > s.X1+1 {
				continue
			}
			// Nearest width-compatible cell in this segment.
			for k, x := range s.xs {
				if math.Abs(x-opt.X) > reach {
					continue
				}
				cj := s.cells[k]
				if cj == ci || !widthCompatible(nl, ci, cj) {
					continue
				}
				if d := st.swapDelta(ci, cj); d < bestDelta {
					bestDelta = d
					best, bestSlot = cj, k
				}
			}
		}
	}
	if best < 0 {
		return false
	}
	// Commit: exchange centers and segment membership. Cross-segment
	// swaps of unequal widths must not overfill either segment, or the
	// re-clump would spill cells past the segment ends.
	cj := best
	si, sj := st.segOf[ci], st.segOf[cj]
	wi, wj := nl.Cells[ci].W, nl.Cells[cj].W
	if si != sj {
		if si.used-wi+wj > si.capacity() || sj.used-wj+wi > sj.capacity() {
			return false
		}
		si.used += wj - wi
		sj.used += wi - wj
		// Each cell takes the other's slot and center: xs is unchanged.
		replaceInSeg(si, ci, cj)
		replaceInSeg(sj, cj, ci)
		st.segOf[ci], st.segOf[cj] = sj, si
	} else {
		// The cells keep their slots and exchange centers.
		i := slices.Index(si.cells, ci)
		si.xs[i], si.xs[bestSlot] = si.xs[bestSlot], si.xs[i]
	}
	st.boxes.commit(st.swapMoves(ci, cj))
	return true
}

func widthCompatible(nl *netlist.Netlist, a, b int) bool {
	wa, wb := nl.Cells[a].W, nl.Cells[b].W
	d := math.Abs(wa - wb)
	return d <= 0.3*math.Min(wa, wb)+1e-9
}

// swapMoves returns the move set that exchanges the centers of a and b.
// The result aliases st.sc and is valid until the next call.
func (st *passState) swapMoves(a, b int) []move {
	pa, pb := st.nl.Cells[a].Pos, st.nl.Cells[b].Pos
	st.sc.moves = append(st.sc.moves[:0], move{a, pb}, move{b, pa})
	return st.sc.moves
}

// swapDelta returns the exact HPWL change of exchanging the centers of
// ci, the cell staged in sc.base, and cj (negative = improvement). Only
// cj's nets are priced here. Nets are accumulated in ascending id order:
// summing in map order would let the last-ulp rounding of the delta — and
// therefore the swap decision — vary between runs.
func (st *passState) swapDelta(ci, cj int) float64 {
	pos := st.boxes.pos
	to := [1]geom.Point{pos[cj]}
	before, after := st.boxes.pricePlus(&st.sc.base, to[:], cj, pos[ci])
	return after - before
}

// scratch holds the buffers the passes reuse across segments, groups and
// cost evaluations, so evaluating a move allocates nothing. Each passState
// owns one, which keeps concurrent legalizations independent.
type scratch struct {
	xs, ys   []float64
	moves    []move
	base     staging      // the move set being priced
	to       []geom.Point // eval's new centers
	eval     []int        // eval's moved cells
	cells    []int        // a segment's cells, or the cells by width class
	rebind   []int        // rebindSegments' tracked cells
	clusters []cluster    // clumpSegment's cluster stack
	pos      []geom.Point // matchGroup's positions
	cost     [][]float64  // matchGroup's cost matrix
	delta    []segDelta   // matchGroup's per-segment width change
	targets  []*Segment   // matchGroup's segment per cell after the move
	match    assign.Solver
}

func replaceInSeg(s *Segment, old, new int) {
	for i, ci := range s.cells {
		if ci == old {
			s.cells[i] = new
			return
		}
	}
}
