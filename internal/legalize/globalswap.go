package legalize

import (
	"math"
	"sort"

	"repro/internal/assign"
	"repro/internal/geom"
	"repro/internal/netlist"
)

// GlobalSwapPass performs Domino-style cross-row improvement: every cell is
// driven toward its optimal region (the median position of its nets'
// bounding boxes), swapping with a similar-width cell near that spot or
// sliding into place when that shortens the incident wire length. Segments
// are re-clumped after each pass to restore exact legality. Returns the
// number of accepted moves.
func GlobalSwapPass(nl *netlist.Netlist, segs []*Segment, passes int) int {
	if passes <= 0 {
		return 0
	}
	return newPassState(nl, segs).globalSwap(passes)
}

func (st *passState) globalSwap(passes int) int {
	st.bindSegOf()
	accepted := 0
	for pass := 0; pass < passes; pass++ {
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
// the cell's HPWL contribution, the classic "optimal region" center.
func optimalPoint(nl *netlist.Netlist, idx [][]int, sc *scratch, ci int) geom.Point {
	xs, ys := sc.xs[:0], sc.ys[:0]
	for _, ni := range idx[ci] {
		var bb geom.BBox
		for _, p := range nl.Nets[ni].Pins {
			if p.Cell == ci {
				continue
			}
			bb.Add(nl.PinPos(p))
		}
		if bb.Count() == 0 {
			continue
		}
		r := bb.Rect()
		xs = append(xs, r.Lo.X, r.Hi.X)
		ys = append(ys, r.Lo.Y, r.Hi.Y)
	}
	sc.xs, sc.ys = xs, ys
	if len(xs) == 0 {
		return nl.Cells[ci].Pos
	}
	sort.Float64s(xs)
	sort.Float64s(ys)
	return geom.Point{X: xs[len(xs)/2], Y: ys[len(ys)/2]}
}

// tryGlobalMove relocates ci toward its optimal point via the best swap
// with a width-compatible cell there.
func (st *passState) tryGlobalMove(ci int) bool {
	nl := st.nl
	opt := optimalPoint(nl, st.idx, &st.sc, ci)
	// Candidate segments: the optimal row and its neighbors.
	row := nl.Region.RowAt(opt.Y)
	var best int = -1
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
			for _, cj := range s.cells {
				if cj == ci {
					continue
				}
				if math.Abs(nl.Cells[cj].Pos.X-opt.X) > 4*nl.Cells[ci].W+2 {
					continue
				}
				if !widthCompatible(nl, ci, cj) {
					continue
				}
				if d := st.swapDelta(ci, cj); d < bestDelta {
					bestDelta = d
					best = cj
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
		replaceInSeg(si, ci, cj)
		replaceInSeg(sj, cj, ci)
		st.segOf[ci], st.segOf[cj] = sj, si
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

// swapDelta returns the exact HPWL change of exchanging the centers of a
// and b (negative = improvement). Nets are accumulated in ascending id
// order: summing in map order would let the last-ulp rounding of the
// delta — and therefore the swap decision — vary between runs.
func (st *passState) swapDelta(a, b int) float64 {
	nets := st.sc.incidentNets(st.idx, a, b)
	before, after := st.boxes.eval(nets, st.swapMoves(a, b))
	return after - before
}

// scratch holds the buffers the passes reuse across segments, groups and
// cost evaluations, so evaluating a move allocates nothing. Each passState
// owns one, which keeps concurrent legalizations independent.
type scratch struct {
	nets     []int
	merge    []int // incidentNets' merge input
	xs, ys   []float64
	moves    []move
	cells    []int        // a segment's cells, or the cells by width class
	clusters []cluster    // clumpSegment's cluster stack
	pos      []geom.Point // matchGroup's positions
	cost     [][]float64  // matchGroup's cost matrix
	delta    []segDelta   // matchGroup's per-segment width change
	targets  []*Segment   // matchGroup's segment per cell after the move
	match    assign.Solver
}

// incidentNets returns the deduplicated ids of all nets incident to the
// given cells, in ascending order, so float accumulation over them is
// bit-reproducible across runs. The result aliases sc and is valid until
// the next call.
func (sc *scratch) incidentNets(idx [][]int, cells ...int) []int {
	nets := sc.nets[:0]
	for k, ci := range cells {
		if k == 0 {
			nets = append(nets, idx[ci]...)
			continue
		}
		// Merge two ascending, duplicate-free lists.
		sc.merge = append(sc.merge[:0], nets...)
		a, b := sc.merge, idx[ci]
		nets = nets[:0]
		for len(a) > 0 || len(b) > 0 {
			switch {
			case len(b) == 0 || len(a) > 0 && a[0] < b[0]:
				nets, a = append(nets, a[0]), a[1:]
			case len(a) == 0 || b[0] < a[0]:
				nets, b = append(nets, b[0]), b[1:]
			default:
				nets, a, b = append(nets, a[0]), a[1:], b[1:]
			}
		}
	}
	sc.nets = nets
	return nets
}

func replaceInSeg(s *Segment, old, new int) {
	for i, ci := range s.cells {
		if ci == old {
			s.cells[i] = new
			return
		}
	}
}
