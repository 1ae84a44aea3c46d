// Package legalize turns a global placement into a legal one and improves
// it locally — the role Domino [17] plays in the paper's flow ("As final
// placer for the proposed method we used Domino", §6.1). Macro blocks are
// legalized first by overlap removal; their footprints are carved out of
// the rows; standard cells are then assigned to row segments Tetris-style
// and positioned by Abacus-like clumping (minimal displacement subject to
// ordering); finally a sliding-window detailed pass reorders neighbors
// whenever that shortens the wire length.
package legalize

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/obsv"
)

// Options controls legalization.
type Options struct {
	// RowSearch is how many rows above/below the target row are tried for
	// each cell (default 6; widened automatically when space runs out).
	RowSearch int
	// DetailedPasses is the number of improvement sweeps after
	// legalization (default 3; 0 disables).
	DetailedPasses int
	// BlockRowFactor: movable cells taller than this many row heights are
	// treated as macro blocks (default 1.5).
	BlockRowFactor float64
	// Spans, when set, receives pass-level span recordings
	// ("legalize/blocks", "legalize/assign", "legalize/clump",
	// "legalize/detailed"). Nil costs nothing.
	Spans *obsv.Spans
}

func (o *Options) setDefaults() {
	if o.RowSearch <= 0 {
		o.RowSearch = 6
	}
	if o.DetailedPasses < 0 {
		o.DetailedPasses = 0
	} else if o.DetailedPasses == 0 {
		o.DetailedPasses = 3
	}
	if o.BlockRowFactor <= 0 {
		o.BlockRowFactor = 1.5
	}
}

// Result summarizes a legalization.
type Result struct {
	HPWLBefore   float64
	HPWLAfter    float64
	Displacement float64 // total movement introduced by legalization
	MaxDisp      float64
	Blocks       int
	Swaps        int // improving swaps applied by the detailed pass
	Runtime      time.Duration
}

// Legalize legalizes nl in place and runs the detailed improvement.
func Legalize(nl *netlist.Netlist, opts Options) (Result, error) {
	opts.setDefaults()
	start := obsv.StartTimer()
	res := Result{HPWLBefore: nl.HPWL()}
	before := nl.Snapshot()

	if len(nl.Region.Rows) == 0 {
		return res, fmt.Errorf("legalize: region has no rows")
	}
	rowH := nl.Region.Rows[0].Height

	var blocks, cells []int
	for ci := range nl.Cells {
		c := &nl.Cells[ci]
		if c.Fixed {
			continue
		}
		if c.H > opts.BlockRowFactor*rowH {
			blocks = append(blocks, ci)
		} else {
			cells = append(cells, ci)
		}
	}
	res.Blocks = len(blocks)

	sp := opts.Spans.Start("legalize/blocks")
	LegalizeBlocks(nl, blocks)
	segs := buildSegments(nl, blocks)
	sp.End()
	sp = opts.Spans.Start("legalize/assign")
	if err := assignCells(nl, cells, segs, opts); err != nil {
		return res, err
	}
	sp.End()
	sp = opts.Spans.Start("legalize/clump")
	clumpSegments(nl, segs)
	sp.End()

	// Iterate the Domino-style improvement (global swaps toward optimal
	// regions, then window permutations) until it stops paying: each round
	// re-clumps, so later rounds see the repaired geometry.
	if opts.DetailedPasses > 0 {
		sp = opts.Spans.Start("legalize/detailed")
		prev := nl.HPWL()
		for round := 0; round < 10; round++ {
			sw := GlobalSwapPass(nl, segs, opts.DetailedPasses)
			sw += MatchingPass(nl, segs, 0)
			sw += DetailedPlace(nl, segs, opts.DetailedPasses)
			res.Swaps += sw
			cur := nl.HPWL()
			if sw == 0 || cur > prev*0.995 {
				break
			}
			prev = cur
		}
		sp.End()
	}

	after := nl.Snapshot()
	res.Displacement = netlist.TotalDisplacement(before, after)
	res.MaxDisp = netlist.MaxDisplacement(before, after)
	res.HPWLAfter = nl.HPWL()
	res.Runtime = start.Elapsed()
	return res, nil
}

// LegalizeBlocks removes overlaps among macro blocks by iterative pairwise
// separation along the axis of least displacement, clamped to the region.
func LegalizeBlocks(nl *netlist.Netlist, blocks []int) {
	out := nl.Region.Outline
	for ci := range blocks {
		c := &nl.Cells[blocks[ci]]
		c.Pos = out.ClampCenter(c.Pos, math.Min(c.W, out.W()), math.Min(c.H, out.H()))
	}
	const maxIter = 100
	for iter := 0; iter < maxIter; iter++ {
		moved := false
		for i := 0; i < len(blocks); i++ {
			for j := i + 1; j < len(blocks); j++ {
				a := &nl.Cells[blocks[i]]
				b := &nl.Cells[blocks[j]]
				ov := a.Rect().Intersect(b.Rect())
				if ov.Empty() {
					continue
				}
				moved = true
				// Separate along the cheaper axis, splitting the push.
				dx := ov.W()
				dy := ov.H()
				if dx <= dy {
					s := dx/2 + 1e-9
					if a.Pos.X <= b.Pos.X {
						a.Pos.X -= s
						b.Pos.X += s
					} else {
						a.Pos.X += s
						b.Pos.X -= s
					}
				} else {
					s := dy/2 + 1e-9
					if a.Pos.Y <= b.Pos.Y {
						a.Pos.Y -= s
						b.Pos.Y += s
					} else {
						a.Pos.Y += s
						b.Pos.Y -= s
					}
				}
				a.Pos = out.ClampCenter(a.Pos, math.Min(a.W, out.W()), math.Min(a.H, out.H()))
				b.Pos = out.ClampCenter(b.Pos, math.Min(b.W, out.W()), math.Min(b.H, out.H()))
			}
		}
		if !moved {
			return
		}
	}
	// Pairwise separation can stall when several blocks crowd a region
	// corner (the clamp pushes them back together). Fall back to a
	// deterministic grid search: blocks are replaced largest-first at the
	// free position nearest their global-placement location.
	placeBlocksGreedy(nl, blocks)
}

// placeBlocksGreedy re-places the blocks largest-first onto a candidate
// grid, choosing for each the non-overlapping position closest to its
// current location. With feasible total area this always succeeds at some
// resolution.
func placeBlocksGreedy(nl *netlist.Netlist, blocks []int) {
	out := nl.Region.Outline
	order := append([]int(nil), blocks...)
	sort.Slice(order, func(a, b int) bool {
		return nl.Cells[order[a]].Area() > nl.Cells[order[b]].Area()
	})
	var placed []int
	for _, bi := range order {
		c := &nl.Cells[bi]
		want := c.Pos
		const steps = 24
		best := geom.Point{}
		bestD := math.Inf(1)
		for iy := 0; iy <= steps; iy++ {
			for ix := 0; ix <= steps; ix++ {
				p := geom.Point{
					X: out.Lo.X + float64(ix)/steps*out.W(),
					Y: out.Lo.Y + float64(iy)/steps*out.H(),
				}
				p = out.ClampCenter(p, math.Min(c.W, out.W()), math.Min(c.H, out.H()))
				r := geom.RectCenteredAt(p, c.W, c.H)
				ok := true
				for _, pj := range placed {
					if r.Overlap(nl.Cells[pj].Rect()) > 1e-9 {
						ok = false
						break
					}
				}
				if ok {
					if d := p.Dist(want); d < bestD {
						bestD = d
						best = p
					}
				}
			}
		}
		if !math.IsInf(bestD, 1) {
			c.Pos = best
		}
		placed = append(placed, bi)
	}
}

// Segment is a free interval of one row, with the cells assigned to it.
type Segment struct {
	Row    int
	Y      float64 // cell-center y
	X0, X1 float64
	cells  []int
	used   float64
}

func (s *Segment) capacity() float64 { return s.X1 - s.X0 }

// buildSegments carves block footprints out of the rows.
func buildSegments(nl *netlist.Netlist, blocks []int) []*Segment {
	var segs []*Segment
	for ri, row := range nl.Region.Rows {
		type iv struct{ lo, hi float64 }
		free := []iv{{row.X0, row.X1}}
		for _, bi := range blocks {
			br := nl.Cells[bi].Rect()
			if br.Hi.Y <= row.Y || br.Lo.Y >= row.Y+row.Height {
				continue
			}
			var next []iv
			for _, f := range free {
				if br.Hi.X <= f.lo || br.Lo.X >= f.hi {
					next = append(next, f)
					continue
				}
				if br.Lo.X > f.lo {
					next = append(next, iv{f.lo, br.Lo.X})
				}
				if br.Hi.X < f.hi {
					next = append(next, iv{br.Hi.X, f.hi})
				}
			}
			free = next
		}
		for _, f := range free {
			if f.hi-f.lo <= 0 {
				continue
			}
			segs = append(segs, &Segment{
				Row: ri,
				Y:   row.Y + row.Height/2,
				X0:  f.lo,
				X1:  f.hi,
			})
		}
	}
	return segs
}

// assignCells maps every standard cell to a segment with enough free
// capacity, minimizing displacement Tetris-style (cells processed in x
// order, greedy best segment).
func assignCells(nl *netlist.Netlist, cells []int, segs []*Segment, opts Options) error {
	if len(segs) == 0 {
		return fmt.Errorf("legalize: no free row segments")
	}
	bySeg := make(map[int][]*Segment) // row -> segments
	for _, s := range segs {
		bySeg[s.Row] = append(bySeg[s.Row], s)
	}
	nRows := len(nl.Region.Rows)

	order := append([]int(nil), cells...)
	sort.Slice(order, func(a, b int) bool {
		return nl.Cells[order[a]].Pos.X < nl.Cells[order[b]].Pos.X
	})

	for _, ci := range order {
		c := &nl.Cells[ci]
		targetRow := nl.Region.RowAt(c.Pos.Y - c.H/2)
		var best *Segment
		bestCost := math.Inf(1)
		radius := opts.RowSearch
		if radius > nRows {
			radius = nRows
		}
		for {
			for ri := targetRow - radius; ri <= targetRow+radius; ri++ {
				if ri < 0 || ri >= nRows {
					continue
				}
				for _, s := range bySeg[ri] {
					if s.capacity()-s.used < c.W {
						continue
					}
					dx := distToInterval(c.Pos.X, s.X0+s.used+c.W/2, s.X1-c.W/2)
					dy := math.Abs(c.Pos.Y - s.Y)
					cost := dx + dy
					if cost < bestCost {
						best, bestCost = s, cost
					}
				}
			}
			if best != nil || radius >= nRows {
				break
			}
			radius *= 4
			if radius > nRows {
				radius = nRows
			}
		}
		if best == nil {
			return fmt.Errorf("legalize: no segment fits cell %d (w=%.2f)", ci, c.W)
		}
		best.cells = append(best.cells, ci)
		best.used += c.W
		c.Pos.Y = best.Y
	}
	return nil
}

func distToInterval(x, lo, hi float64) float64 {
	if hi < lo {
		return math.Abs(x - lo)
	}
	if x < lo {
		return lo - x
	}
	if x > hi {
		return x - hi
	}
	return 0
}

// clumpSegments runs the Abacus-style 1-D least-displacement placement
// inside every segment: cells keep their x order, overlapping groups merge
// into clusters placed at their average desired position.
func clumpSegments(nl *netlist.Netlist, segs []*Segment) {
	for _, s := range segs {
		clumpSegment(nl, s)
	}
}

type cluster struct {
	cells  []int
	weight float64 // number of cells (unit weights)
	qx     float64 // Σ desired left-edge positions adjusted by offsets
	width  float64
	x      float64 // left edge
}

func clumpSegment(nl *netlist.Netlist, s *Segment) {
	if len(s.cells) == 0 {
		return
	}
	sort.Slice(s.cells, func(a, b int) bool {
		return nl.Cells[s.cells[a]].Pos.X < nl.Cells[s.cells[b]].Pos.X
	})
	var stack []*cluster
	for _, ci := range s.cells {
		c := &nl.Cells[ci]
		desired := c.Pos.X - c.W/2 // desired left edge
		cl := &cluster{cells: []int{ci}, weight: 1, qx: desired, width: c.W}
		cl.x = clampF(desired, s.X0, s.X1-cl.width)
		stack = append(stack, cl)
		// Merge while overlapping the previous cluster.
		for len(stack) > 1 {
			top := stack[len(stack)-1]
			prev := stack[len(stack)-2]
			if prev.x+prev.width <= top.x+1e-12 {
				break
			}
			// Merge top into prev. Desired position of merged cluster:
			// average of member desires with members offset by prefix
			// widths — accumulate qx as Σ(desired_i − offset_i).
			prev.qx += top.qx - top.weight*prev.width
			prev.weight += top.weight
			prev.cells = append(prev.cells, top.cells...)
			prev.width += top.width
			prev.x = clampF(prev.qx/prev.weight, s.X0, s.X1-prev.width)
			stack = stack[:len(stack)-1]
		}
	}
	for _, cl := range stack {
		x := cl.x
		for _, ci := range cl.cells {
			c := &nl.Cells[ci]
			c.Pos.X = x + c.W/2
			x += c.W
		}
	}
}

func clampF(v, lo, hi float64) float64 {
	if hi < lo {
		return lo
	}
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// DetailedPlace runs Domino-like local improvement: sliding windows of up
// to three adjacent cells per segment are permuted whenever that reduces
// the half-perimeter wire length. Returns the number of improving changes.
func DetailedPlace(nl *netlist.Netlist, segs []*Segment, passes int) int {
	improved := 0
	var sc scratch
	for pass := 0; pass < passes; pass++ {
		changed := 0
		for _, s := range segs {
			changed += improveSegment(nl, &sc, s)
		}
		improved += changed
		if changed == 0 {
			break
		}
	}
	return improved
}

// improveSegment tries reversing each adjacent pair and rotating each
// adjacent triple, keeping changes that shorten incident nets.
func improveSegment(nl *netlist.Netlist, sc *scratch, s *Segment) int {
	if len(s.cells) < 2 {
		return 0
	}
	idx := nl.CellNets()
	changed := 0
	for i := 0; i+1 < len(s.cells); i++ {
		if tryReorder(nl, idx, sc, s, i, 2) {
			changed++
		}
	}
	for i := 0; i+2 < len(s.cells); i++ {
		if tryReorder(nl, idx, sc, s, i, 3) {
			changed++
		}
	}
	return changed
}

// tryReorder permutes the k cells starting at window position i and keeps
// the best ordering (cells repacked over the same span).
func tryReorder(nl *netlist.Netlist, idx [][]int, sc *scratch, s *Segment, i, k int) bool {
	window := s.cells[i : i+k]
	// Incident nets in ascending id order: the cost sums must accumulate
	// identically across runs or the kept ordering could differ.
	nets := sc.incidentNets(idx, window...)
	cost := func() float64 {
		var c float64
		for _, ni := range nets {
			c += nl.Nets[ni].Weight * nl.NetHPWL(ni)
		}
		return c
	}
	span0 := nl.Cells[window[0]].Pos.X - nl.Cells[window[0]].W/2

	place := func(order []int) {
		x := span0
		for _, ci := range order {
			c := &nl.Cells[ci]
			c.Pos.X = x + c.W/2
			x += c.W
		}
	}

	orig := append([]int(nil), window...)
	best := append([]int(nil), window...)
	bestCost := cost()
	improvedAny := false
	permute(window, func(order []int) {
		place(order)
		if c := cost(); c < bestCost-1e-12 {
			bestCost = c
			copy(best, order)
			improvedAny = true
		}
	})
	copy(window, best)
	place(window)
	if !improvedAny {
		copy(window, orig)
		place(window)
	}
	return improvedAny
}

// permute enumerates permutations of s (small k), calling f on each.
func permute(s []int, f func([]int)) {
	var rec func(k int)
	rec = func(k int) {
		if k == len(s) {
			f(s)
			return
		}
		for i := k; i < len(s); i++ {
			s[k], s[i] = s[i], s[k]
			rec(k + 1)
			s[k], s[i] = s[i], s[k]
		}
	}
	rec(0)
}
