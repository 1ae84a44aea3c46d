// Package legalize turns a global placement into a legal one and improves
// it locally — the role Domino [17] plays in the paper's flow ("As final
// placer for the proposed method we used Domino", §6.1). Macro blocks are
// legalized first by overlap removal; their footprints are carved out of
// the rows; standard cells are then assigned to row segments Tetris-style
// and positioned by Abacus-like clumping (minimal displacement subject to
// ordering); finally a sliding-window detailed pass reorders neighbors
// whenever that shortens the wire length.
//
// The improvement passes (global swaps, MatchingPass and the window
// reorder) price candidate moves through netBoxes (netbox.go), a cache of
// every net's bounding box with the number of pins on each of its four
// extremes. A move set is staged once — each incident net's box without
// the moving cells, rescanned only when every pin on one of its extremes
// moves — and every placement of the set is priced by folding the moved
// pins into the staged boxes. Min and max are exact and nets are summed in
// ascending order, so the sums equal full netlist.NetHPWL rescans bit for
// bit and every decision is the one a rescan would make. Pricing writes no
// cell position: only committed moves and re-clumping do, and they update
// the moved cells' net boxes in place.
package legalize

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/obsv"
)

// Options controls legalization.
type Options struct {
	// DetailedPasses is the number of improvement sweeps after
	// legalization (default 3 when 0; a negative value disables them).
	DetailedPasses int
	// Spans, when set, receives pass-level span recordings
	// ("legalize/blocks", "legalize/assign", "legalize/clump",
	// "legalize/detailed", and inside the last one a span per improvement
	// pass: "legalize/globalswap", "legalize/matching", "legalize/window").
	// Nil costs nothing.
	Spans *obsv.Spans
}

func (o *Options) setDefaults() {
	if o.DetailedPasses < 0 {
		o.DetailedPasses = 0
	} else if o.DetailedPasses == 0 {
		o.DetailedPasses = 3
	}
}

// rowSearch is how many rows above and below its target row assignCells
// first tries for each cell; the window widens when space runs out.
const rowSearch = 6

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
	return legalize(nl, opts, nil)
}

// legalize is Legalize with a hook that, when set, sees the segments after
// the first clump and after every improvement pass; tests check the
// segment bookkeeping through it.
func legalize(nl *netlist.Netlist, opts Options, afterPass func(pass string, segs []*Segment)) (Result, error) {
	opts.setDefaults()
	start := obsv.StartTimer()
	res := Result{HPWLBefore: nl.HPWL()}
	before := nl.Snapshot()

	if len(nl.Region.Rows) == 0 {
		return res, fmt.Errorf("legalize: region has no rows")
	}

	var blocks, cells []int
	for ci := range nl.Cells {
		if nl.Cells[ci].Fixed {
			continue
		}
		if nl.IsBlock(ci) {
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
	if err := assignCells(nl, cells, segs); err != nil {
		return res, err
	}
	sp.End()
	sp = opts.Spans.Start("legalize/clump")
	st := newPassState(nl, segs)
	st.clump()
	sp.End()
	check := func(pass string) {
		if afterPass != nil {
			afterPass(pass, segs)
		}
	}
	check("clump")

	// Iterate the Domino-style improvement (global swaps toward optimal
	// regions, then window permutations) until it stops paying: each round
	// re-clumps, so later rounds see the repaired geometry.
	if opts.DetailedPasses > 0 {
		sp = opts.Spans.Start("legalize/detailed")
		prev := nl.HPWL()
		for round := 0; round < 10; round++ {
			pass := opts.Spans.Start("legalize/globalswap")
			sw := st.globalSwap(opts.DetailedPasses)
			pass.End()
			check("globalswap")
			pass = opts.Spans.Start("legalize/matching")
			sw += st.matching(0)
			pass.End()
			check("matching")
			pass = opts.Spans.Start("legalize/window")
			sw += st.detailed(opts.DetailedPasses)
			pass.End()
			check("detailed")
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
	// xs[k] is the center x of cells[k] during a global-swap pass, so
	// the candidate filter reads one dense row; stale outside the pass.
	xs []float64
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
func assignCells(nl *netlist.Netlist, cells []int, segs []*Segment) error {
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
		radius := min(rowSearch, nRows)
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

// cluster is a run of abutting cells: s.cells[start:] up to the next
// cluster's start, which is contiguous because cells keep their x order.
type cluster struct {
	start  int
	weight float64 // number of cells (unit weights)
	qx     float64 // Σ desired left-edge positions adjusted by offsets
	width  float64
	x      float64 // left edge
}

// clumpSegment runs the Abacus-style 1-D least-displacement placement
// inside s: cells keep their x order, overlapping groups merge into
// clusters placed at their average desired position.
func (st *passState) clumpSegment(s *Segment) {
	if len(s.cells) == 0 {
		return
	}
	nl := st.nl
	slices.SortFunc(s.cells, byX(nl))
	stack := st.sc.clusters[:0]
	for k, ci := range s.cells {
		c := &nl.Cells[ci]
		desired := c.Pos.X - c.W/2 // desired left edge
		cl := cluster{start: k, weight: 1, qx: desired, width: c.W}
		cl.x = clampF(desired, s.X0, s.X1-cl.width)
		stack = append(stack, cl)
		// Merge while overlapping the previous cluster.
		for len(stack) > 1 {
			top := stack[len(stack)-1]
			prev := &stack[len(stack)-2]
			if prev.x+prev.width <= top.x+1e-12 {
				break
			}
			// Merge top into prev. Desired position of merged cluster:
			// average of member desires with members offset by prefix
			// widths — accumulate qx as Σ(desired_i − offset_i).
			prev.qx += top.qx - top.weight*prev.width
			prev.weight += top.weight
			prev.width += top.width
			prev.x = clampF(prev.qx/prev.weight, s.X0, s.X1-prev.width)
			stack = stack[:len(stack)-1]
		}
	}
	for k, cl := range stack {
		end := len(s.cells)
		if k+1 < len(stack) {
			end = stack[k+1].start
		}
		x := cl.x
		for _, ci := range s.cells[cl.start:end] {
			c := &nl.Cells[ci]
			st.boxes.moveCell(ci, geom.Point{X: x + c.W/2, Y: c.Pos.Y})
			x += c.W
		}
	}
	st.sc.clusters = stack
}

// byX orders cells by center x. slices.SortFunc and sort.Slice run the
// same pattern-defeating quicksort, so cells with equal x keep the order
// sort.Slice would give them.
func byX(nl *netlist.Netlist) func(a, b int) int {
	return func(a, b int) int { return cmp.Compare(nl.Cells[a].Pos.X, nl.Cells[b].Pos.X) }
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

// passState is what one legalization threads through its improvement
// passes: the cost engine, the segment lookups and the buffers every
// evaluation reuses, so a pass allocates O(1). Legalize builds one;
// MatchingPass builds its own when called directly.
type passState struct {
	nl    *netlist.Netlist
	segs  []*Segment
	boxes *netBoxes
	segOf []*Segment   // per cell; nil for cells in no segment
	byRow [][]*Segment // segments of each row, in segs order
	sc    scratch
}

func newPassState(nl *netlist.Netlist, segs []*Segment) *passState {
	st := &passState{
		nl:    nl,
		segs:  segs,
		boxes: newNetBoxes(nl),
		segOf: make([]*Segment, len(nl.Cells)),
		byRow: make([][]*Segment, len(nl.Region.Rows)),
	}
	for _, s := range segs {
		st.byRow[s.Row] = append(st.byRow[s.Row], s)
	}
	return st
}

// bindSegOf records every tracked cell's segment.
func (st *passState) bindSegOf() {
	clear(st.segOf)
	for _, s := range st.segs {
		for _, ci := range s.cells {
			st.segOf[ci] = s
		}
	}
}

// clump re-clumps every segment. Positions go through moveCell, so only
// the nets of cells that really moved go stale.
func (st *passState) clump() {
	for _, s := range st.segs {
		st.clumpSegment(s)
	}
}

// detailed runs Domino-like local improvement: sliding windows of up to
// three adjacent cells per segment are permuted whenever that reduces the
// half-perimeter wire length. Returns the number of improving changes.
func (st *passState) detailed(passes int) int {
	improved := 0
	for pass := 0; pass < passes; pass++ {
		changed := 0
		for _, s := range st.segs {
			changed += st.improveSegment(s)
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
func (st *passState) improveSegment(s *Segment) int {
	if len(s.cells) < 2 {
		return 0
	}
	changed := 0
	for i := 0; i+1 < len(s.cells); i++ {
		if st.tryReorder(s, i, 2) {
			changed++
		}
	}
	for i := 0; i+2 < len(s.cells); i++ {
		if st.tryReorder(s, i, 3) {
			changed++
		}
	}
	return changed
}

// Window orderings in swap-enumeration order. The first strictly best
// ordering wins, so this order decides ties.
var (
	orders2 = [][3]int{{0, 1}, {1, 0}}
	orders3 = [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 1, 0}, {2, 0, 1}}
)

// tryReorder permutes the k cells starting at window position i and keeps
// the best ordering (cells repacked over the same span). The window is
// staged once for all of its orderings.
func (st *passState) tryReorder(s *Segment, i, k int) bool {
	nl, sc := st.nl, &st.sc
	window := s.cells[i : i+k]
	st.boxes.stage(&sc.base, window)
	span0 := nl.Cells[window[0]].Pos.X - nl.Cells[window[0]].W/2
	orders := orders2
	if k == 3 {
		orders = orders3
	}
	var orig [3]int
	copy(orig[:], window)
	best := orders[0]
	bestCost := sc.base.before
	improvedAny := false
	for _, o := range orders {
		// packed lists the cells in order o; fold takes them in window
		// order, the order they were staged in.
		var to [3]geom.Point
		for j, m := range st.packed(orig[:k], o, span0) {
			to[o[j]] = m.to
		}
		if c := st.boxes.fold(&sc.base, to[:k]); c < bestCost-1e-12 {
			bestCost = c
			best = o
			improvedAny = true
		}
	}
	// The repacked span is committed even when the order is kept: packing
	// may move a cell by an ulp.
	for j := 0; j < k; j++ {
		window[j] = orig[best[j]]
	}
	st.boxes.commit(st.packed(orig[:k], best, span0))
	return improvedAny
}

// packed returns the moves that abut cells[o[0]], cells[o[1]], ... from the
// left edge x. The result aliases st.sc and is valid until the next call.
func (st *passState) packed(cells []int, o [3]int, x float64) []move {
	ms := st.sc.moves[:0]
	for j := range cells {
		c := &st.nl.Cells[cells[o[j]]]
		ms = append(ms, move{cells[o[j]], geom.Point{X: x + c.W/2, Y: c.Pos.Y}})
		x += c.W
	}
	st.sc.moves = ms
	return ms
}

// eval returns Σ w·HPWL over the moved cells' nets before and after
// moving each moves[k].cell to moves[k].to, both accumulated in ascending
// net order, so the sums are bit-reproducible across runs. No position is
// written.
func (st *passState) eval(moves []move) (before, after float64) {
	sc := &st.sc
	sc.eval, sc.to = sc.eval[:0], sc.to[:0]
	for _, m := range moves {
		sc.eval = append(sc.eval, m.cell)
		sc.to = append(sc.to, m.to)
	}
	st.boxes.stage(&sc.base, sc.eval)
	return sc.base.before, st.boxes.fold(&sc.base, sc.to)
}
