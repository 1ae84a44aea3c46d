package legalize

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/assign"
	"repro/internal/netlist"
)

// MatchingPass runs independent-set matching, the assignment-problem core
// of network-flow final placers like Domino [17]: groups of
// width-compatible cells are reassigned to the group's own set of
// positions at exactly minimal approximate cost (Hungarian algorithm),
// then the move is verified against the true HPWL and committed only when
// it really improves. Returns the number of committed group moves.
func MatchingPass(nl *netlist.Netlist, segs []*Segment, groupSize int) int {
	return newPassState(nl, segs).matching(groupSize)
}

func (st *passState) matching(groupSize int) int {
	if groupSize < 2 {
		groupSize = 6
	}
	if groupSize > 12 {
		groupSize = 12
	}
	nl := st.nl
	st.bindSegOf()

	// Bucket movable standard cells by width class so any permutation of a
	// group's positions stays (nearly) legal: a stable sort by class keeps
	// each class's cells in segment order.
	cells := st.sc.cells[:0]
	for _, s := range st.segs {
		cells = append(cells, s.cells...)
	}
	st.sc.cells = cells
	slices.SortStableFunc(cells, func(a, b int) int {
		return cmp.Compare(widthClass(nl.Cells[a].W), widthClass(nl.Cells[b].W))
	})

	committed := 0
	for lo := 0; lo < len(cells); {
		hi := lo + 1
		for hi < len(cells) && widthClass(nl.Cells[cells[hi]].W) == widthClass(nl.Cells[cells[lo]].W) {
			hi++
		}
		b := cells[lo:hi]
		lo = hi
		// Group spatial neighbors (sorted by x) so candidate positions are
		// exchangeable without long-range disruption.
		slices.SortFunc(b, byX(nl))
		for start := 0; start+1 < len(b); start += groupSize {
			end := start + groupSize
			if end > len(b) {
				end = len(b)
			}
			if st.matchGroup(b[start:end]) {
				committed++
			}
		}
	}
	if committed > 0 {
		// Cells exchanged positions, possibly across segments: rebuild the
		// membership from the geometry, then restore exact legality.
		rebindSegments(nl, st.segs)
		st.clump()
	}
	return committed
}

// rebindSegments reassigns every tracked cell to the segment containing
// its current center.
func rebindSegments(nl *netlist.Netlist, segs []*Segment) {
	var all []int
	for _, s := range segs {
		all = append(all, s.cells...)
		s.cells = s.cells[:0]
		s.used = 0
	}
	for _, ci := range all {
		c := &nl.Cells[ci]
		var best *Segment
		bestD := math.Inf(1)
		for _, s := range segs {
			dy := math.Abs(c.Pos.Y - s.Y)
			dx := distToInterval(c.Pos.X, s.X0+c.W/2, s.X1-c.W/2)
			if d := dx + dy; d < bestD {
				bestD = d
				best = s
			}
		}
		best.cells = append(best.cells, ci)
		best.used += c.W
	}
}

func widthClass(w float64) int { return int(w * 4) }

// segDelta is the width a group move adds to one segment.
type segDelta struct {
	seg *Segment
	d   float64
}

// matchGroup reassigns the group's cells over the group's current
// positions by minimum-cost assignment; commits only on verified HPWL
// improvement.
func (st *passState) matchGroup(group []int) bool {
	n := len(group)
	if n < 2 {
		return false
	}
	nl, sc := st.nl, &st.sc
	positions := sc.pos[:0]
	for _, ci := range group {
		positions = append(positions, nl.Cells[ci].Pos)
	}
	sc.pos = positions

	// Approximate independent cost: cell i at position j with all other
	// group members held at their current spots.
	for len(sc.cost) < n {
		sc.cost = append(sc.cost, nil)
	}
	cost := sc.cost[:n]
	for i, ci := range group {
		cost[i] = cost[i][:0]
		for j := range positions {
			sc.moves = append(sc.moves[:0], move{ci, positions[j]})
			_, s := st.boxes.eval(st.idx[ci], sc.moves)
			cost[i] = append(cost[i], s)
		}
	}
	sol := sc.match.Solve(cost)
	if math.IsInf(assign.Cost(cost, sol), 1) {
		return false
	}
	// Capacity check: position j belongs to the segment of the cell that
	// originally held it; widths within a class differ slightly, so the
	// exchange must not overfill any segment.
	delta := sc.delta[:0]
	for i, ci := range group {
		from := st.segOf[ci]
		to := st.segOf[group[sol[i]]]
		if from != to {
			w := nl.Cells[ci].W
			delta = addDelta(delta, from, -w)
			delta = addDelta(delta, to, w)
		}
	}
	sc.delta = delta
	for _, sd := range delta {
		if sd.seg != nil && sd.seg.used+sd.d > sd.seg.capacity()+1e-9 {
			return false
		}
	}
	// Verify exactly: the incident-net HPWL of the whole group, accumulated
	// in ascending net order so accept/revert decisions reproduce across
	// runs. Interactions can make the independent approximation wrong.
	moves := sc.moves[:0]
	for i, ci := range group {
		moves = append(moves, move{ci, positions[sol[i]]})
	}
	sc.moves = moves
	before, after := st.boxes.eval(sc.incidentNets(st.idx, group...), moves)
	if !(after < before-1e-9) {
		return false
	}
	st.boxes.commit(moves)
	// Later groups of this pass check capacity against the segment
	// bookkeeping, so it must follow the move: each cell now belongs to
	// the segment of the position it took. Read every target before
	// writing any.
	for _, sd := range delta {
		if sd.seg != nil {
			sd.seg.used += sd.d
		}
	}
	targets := sc.targets[:0]
	for i := range group {
		targets = append(targets, st.segOf[group[sol[i]]])
	}
	sc.targets = targets
	for i, ci := range group {
		if st.segOf[ci] != nil && targets[i] != nil {
			st.segOf[ci] = targets[i]
		}
	}
	return true
}

// addDelta adds d to seg's entry, appending one if seg has none yet.
func addDelta(ds []segDelta, seg *Segment, d float64) []segDelta {
	for k := range ds {
		if ds[k].seg == seg {
			ds[k].d += d
			return ds
		}
	}
	return append(ds, segDelta{seg, d})
}
