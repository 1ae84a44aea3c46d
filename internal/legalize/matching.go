package legalize

import (
	"math"
	"sort"

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
	if groupSize < 2 {
		groupSize = 6
	}
	if groupSize > 12 {
		groupSize = 12
	}
	idx := nl.CellNets()
	var sc scratch
	segOf := map[int]*Segment{}
	for _, s := range segs {
		for _, ci := range s.cells {
			segOf[ci] = s
		}
	}

	// Bucket movable standard cells by width class so any permutation of a
	// group's positions stays (nearly) legal.
	type bucket struct {
		cells []int
	}
	buckets := map[int]*bucket{}
	for _, s := range segs {
		for _, ci := range s.cells {
			k := widthClass(nl.Cells[ci].W)
			b := buckets[k]
			if b == nil {
				b = &bucket{}
				buckets[k] = b
			}
			b.cells = append(b.cells, ci)
		}
	}

	committed := 0
	keys := make([]int, 0, len(buckets))
	for k := range buckets {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		b := buckets[k]
		// Group spatial neighbors (sorted by x) so candidate positions are
		// exchangeable without long-range disruption.
		sort.Slice(b.cells, func(a, c int) bool {
			return nl.Cells[b.cells[a]].Pos.X < nl.Cells[b.cells[c]].Pos.X
		})
		for start := 0; start+1 < len(b.cells); start += groupSize {
			end := start + groupSize
			if end > len(b.cells) {
				end = len(b.cells)
			}
			if matchGroup(nl, idx, &sc, segOf, b.cells[start:end]) {
				committed++
			}
		}
	}
	if committed > 0 {
		// Cells exchanged positions, possibly across segments: rebuild the
		// membership from the geometry, then restore exact legality.
		rebindSegments(nl, segs)
		clumpSegments(nl, segs)
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

// matchGroup reassigns the group's cells over the group's current
// positions by minimum-cost assignment; commits only on verified HPWL
// improvement.
func matchGroup(nl *netlist.Netlist, idx [][]int, sc *scratch, segOf map[int]*Segment, group []int) bool {
	n := len(group)
	if n < 2 {
		return false
	}
	positions := make([]struct{ x, y float64 }, n)
	for i, ci := range group {
		positions[i] = struct{ x, y float64 }{nl.Cells[ci].Pos.X, nl.Cells[ci].Pos.Y}
	}
	// Incident-net HPWL of the whole group, the exact verification metric,
	// accumulated in ascending net order so accept/revert decisions
	// reproduce across runs.
	nets := sc.incidentNets(idx, group...)
	exact := func() float64 {
		var s float64
		for _, ni := range nets {
			s += nl.Nets[ni].Weight * nl.NetHPWL(ni)
		}
		return s
	}
	before := exact()

	// Approximate independent cost: cell i at position j with all other
	// group members held at their current spots.
	cost := make([][]float64, n)
	for i, ci := range group {
		cost[i] = make([]float64, n)
		orig := nl.Cells[ci].Pos
		for j := range positions {
			nl.Cells[ci].Pos.X = positions[j].x
			nl.Cells[ci].Pos.Y = positions[j].y
			var s float64
			for _, ni := range idx[ci] {
				s += nl.Nets[ni].Weight * nl.NetHPWL(ni)
			}
			cost[i][j] = s
		}
		nl.Cells[ci].Pos = orig
	}
	sol := assign.Solve(cost)
	if math.IsInf(assign.Cost(cost, sol), 1) {
		return false
	}
	// Capacity check: position j belongs to the segment of the cell that
	// originally held it; widths within a class differ slightly, so the
	// exchange must not overfill any segment.
	delta := map[*Segment]float64{}
	for i, ci := range group {
		j := sol[i]
		from := segOf[ci]
		to := segOf[group[j]]
		if from != to {
			w := nl.Cells[ci].W
			delta[from] -= w
			delta[to] += w
		}
	}
	//lint:ignore detrange pure all-must-pass predicate with no accumulation; the verdict is the same in any iteration order
	for s, d := range delta {
		if s != nil && s.used+d > s.capacity()+1e-9 {
			return false
		}
	}
	// Apply and verify exactly.
	for i, ci := range group {
		j := sol[i]
		nl.Cells[ci].Pos.X = positions[j].x
		nl.Cells[ci].Pos.Y = positions[j].y
	}
	if exact() < before-1e-9 {
		return true
	}
	// Revert: interactions made the independent approximation wrong.
	for i, ci := range group {
		nl.Cells[ci].Pos.X = positions[i].x
		nl.Cells[ci].Pos.Y = positions[i].y
	}
	return false
}
