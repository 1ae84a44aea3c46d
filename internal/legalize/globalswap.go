package legalize

import (
	"math"
	"sort"

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
	idx := nl.CellNets()
	var sc scratch
	segOf := map[int]*Segment{}
	for _, s := range segs {
		for _, ci := range s.cells {
			segOf[ci] = s
		}
	}
	// Segment lookup by row for targeting.
	byRow := map[int][]*Segment{}
	for _, s := range segs {
		byRow[s.Row] = append(byRow[s.Row], s)
	}

	accepted := 0
	for pass := 0; pass < passes; pass++ {
		moved := 0
		for _, s := range segs {
			// Iterate over a copy: swaps mutate segment membership.
			cells := append([]int(nil), s.cells...)
			for _, ci := range cells {
				if segOf[ci] != s {
					continue // already moved this pass
				}
				if tryGlobalMove(nl, idx, &sc, segOf, byRow, ci) {
					moved++
				}
			}
		}
		clumpSegments(nl, segs)
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
func tryGlobalMove(nl *netlist.Netlist, idx [][]int, sc *scratch, segOf map[int]*Segment, byRow map[int][]*Segment, ci int) bool {
	opt := optimalPoint(nl, idx, sc, ci)
	// Candidate segments: the optimal row and its neighbors.
	row := nl.Region.RowAt(opt.Y)
	var best int = -1
	bestDelta := -1e-12
	for dr := -1; dr <= 1; dr++ {
		for _, s := range byRow[row+dr] {
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
				if d := swapDelta(nl, idx, sc, ci, cj); d < bestDelta {
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
	si, sj := segOf[ci], segOf[cj]
	wi, wj := nl.Cells[ci].W, nl.Cells[cj].W
	if si != sj {
		if si.used-wi+wj > si.capacity() || sj.used-wj+wi > sj.capacity() {
			return false
		}
		si.used += wj - wi
		sj.used += wi - wj
		replaceInSeg(si, ci, cj)
		replaceInSeg(sj, cj, ci)
		segOf[ci], segOf[cj] = sj, si
	}
	nl.Cells[ci].Pos, nl.Cells[cj].Pos = nl.Cells[cj].Pos, nl.Cells[ci].Pos
	return true
}

func widthCompatible(nl *netlist.Netlist, a, b int) bool {
	wa, wb := nl.Cells[a].W, nl.Cells[b].W
	d := math.Abs(wa - wb)
	return d <= 0.3*math.Min(wa, wb)+1e-9
}

// swapDelta returns the exact HPWL change of exchanging the centers of a
// and b (negative = improvement). Nets are accumulated in ascending id
// order: summing in map order would let the last-ulp rounding of the
// delta — and therefore the swap decision — vary between runs.
func swapDelta(nl *netlist.Netlist, idx [][]int, sc *scratch, a, b int) float64 {
	nets := sc.incidentNets(idx, a, b)
	before := 0.0
	for _, ni := range nets {
		before += nl.Nets[ni].Weight * nl.NetHPWL(ni)
	}
	nl.Cells[a].Pos, nl.Cells[b].Pos = nl.Cells[b].Pos, nl.Cells[a].Pos
	after := 0.0
	for _, ni := range nets {
		after += nl.Nets[ni].Weight * nl.NetHPWL(ni)
	}
	nl.Cells[a].Pos, nl.Cells[b].Pos = nl.Cells[b].Pos, nl.Cells[a].Pos
	return after - before
}

// scratch holds the buffers a pass reuses across its cost evaluations, so
// evaluating a move allocates nothing. Each pass creates its own, which
// keeps concurrent legalizations independent.
type scratch struct {
	nets   []int
	xs, ys []float64
}

// incidentNets returns the deduplicated ids of all nets incident to the
// given cells, in ascending order, so float accumulation over them is
// bit-reproducible across runs. The result aliases sc and is valid until
// the next call.
func (sc *scratch) incidentNets(idx [][]int, cells ...int) []int {
	nets := sc.nets[:0]
	for _, ci := range cells {
		nets = append(nets, idx[ci]...)
	}
	sort.Ints(nets)
	out := nets[:0]
	for k, ni := range nets {
		if k == 0 || ni != nets[k-1] {
			out = append(out, ni)
		}
	}
	sc.nets = nets
	return out
}

func replaceInSeg(s *Segment, old, new int) {
	for i, ci := range s.cells {
		if ci == old {
			s.cells[i] = new
			return
		}
	}
}
