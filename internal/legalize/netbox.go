package legalize

import (
	"repro/internal/geom"
	"repro/internal/netlist"
)

// netBoxes is the exact, incremental cost engine behind every improvement
// pass. It caches each net's bounding box together with the number of pins
// lying on each of the box's four extremes (left, right, bottom, top).
//
// A move set — the cells a candidate move relocates — is priced in two
// steps. stage records, once per set, each incident net's box of the pins
// outside the set: the set's pins are taken off the extreme counts, and
// while every extreme keeps at least one other pin, the other pins still
// span exactly the cached box. Only when every pin on some extreme is in
// the set is the net rescanned, skipping the set's cells. fold then prices
// any placement of the set's cells by extending each staged box with the
// cells' pins at their new centers. So a reorder window is staged once for
// all of its orderings and a matching cell once for all of its group's
// positions; a global swap stages its cell once, and pricePlus prices each
// candidate partner against that stage, scanning only the partner's nets.
// The box of a net without one cell is also kept per (cell, net) until a
// pin of the net moves, since a swap partner is priced for many cells in
// one pass. Min and max are exact, so each per-net HPWL equals
// netlist.NetHPWL bit for bit, and the passes sum them in the same
// ascending net order as a full rescan would: every swap, reorder and
// matching decision is the one the rescan would make.
//
// Pricing writes no cell position. Every position the passes write —
// committed swaps, reorders and matchings, and the re-clumping between
// them — goes through moveCell, which updates the cell's nets in place:
// its old pins are taken off the extreme counts and its new pins folded
// into the box. A net goes stale only when one of its extremes is left
// with no pin, and is rescanned on its next use.
type netBoxes struct {
	nl *netlist.Netlist
	// pos mirrors every cell's center densely, so pricing does not stride
	// through nl.Cells; moveCell writes both.
	pos []geom.Point
	// Cell ci's pins are pins[first[ci]:first[ci+1]], in ascending net
	// order; net ni's pins are netPins[netFirst[ni]:netFirst[ni+1]].
	first    []int
	pins     []cellPin
	netFirst []int32
	netPins  []netPin
	net      []netState
	w        []float64 // net weights
	// ver[ni] counts the moves of net ni's pins. alones[r] describes a
	// net without one cell, whose pins on the net start at pins[r], as of
	// the net's version alones[r].ver.
	ver    []uint32
	alones []aloneBox
	// mark[ci] == stamp while ci belongs to the move set being staged.
	mark   []uint32
	stamp  uint32
	cursor []int // per staged cell, its next pin in the net merge
}

// netState is one net's cached box with the number of pins on each of its
// extremes, indexed by loX..hiY.
type netState struct {
	box   geom.Rect
	ext   [4]int32
	valid bool // box and ext match the pins
}

// aloneBox is a cached net box without one cell's pins, with the net's
// cost w·HPWL.
type aloneBox struct {
	outside
	cost float64
	ver  uint32
}

// netPin is one pin in the engine's flattened per-net pin list.
type netPin struct {
	cell int32
	off  geom.Point
}

// cellPin is one pin in the engine's flattened per-cell pin list.
type cellPin struct {
	net int
	off geom.Point
}

// move is a candidate position for one cell.
type move struct {
	cell int
	to   geom.Point
}

// staging is a move set with, for each of its incident nets, the box of
// the pins outside the set. It is filled by stage and priced by fold or
// pricePlus; the passes keep theirs in scratch, so staging allocates only
// while its buffers grow.
type staging struct {
	cells  []int
	nets   []int // ascending
	net    []stagedNet
	pins   []stagedPin // the set's pins, grouped by net in nets order
	before float64     // Σ w·HPWL over nets at the current positions
}

// stagedNet is one net of a staging.
type stagedNet struct {
	outside
	w    float64 // net weight
	cost float64 // w·HPWL at the current positions
	end  int     // the net's pins are staging.pins[previous end:end]
}

// outside is the box of a net's pins outside a set of cells, with the
// number of those pins on each of its extremes. A net with no pin outside
// the set has zero counts.
type outside struct {
	box geom.Rect
	ext [4]int32
}

// empty reports whether no pin of the net lies outside the set.
func (o *outside) empty() bool { return o.ext[loX] == 0 }

// stagedPin is a pin of a staged cell: the cell's index in staging.cells
// and its offset from the cell center.
type stagedPin struct {
	k   int
	off geom.Point
}

// The four extremes of a net box.
const (
	loX = iota
	hiX
	loY
	hiY
)

func newNetBoxes(nl *netlist.Netlist) *netBoxes {
	n := len(nl.Cells)
	e := &netBoxes{
		nl:       nl,
		pos:      make([]geom.Point, n),
		first:    make([]int, n+1),
		netFirst: make([]int32, len(nl.Nets)+1),
		net:      make([]netState, len(nl.Nets)),
		w:        make([]float64, len(nl.Nets)),
		ver:      make([]uint32, len(nl.Nets)),
		mark:     make([]uint32, n),
	}
	for ci := range nl.Cells {
		e.pos[ci] = nl.Cells[ci].Pos
	}
	for ni := range nl.Nets {
		e.w[ni], e.ver[ni] = nl.Nets[ni].Weight, 1 // no alone box is cached yet
		e.netFirst[ni+1] = e.netFirst[ni] + int32(len(nl.Nets[ni].Pins))
	}
	e.netPins = make([]netPin, 0, e.netFirst[len(nl.Nets)])
	for ni := range nl.Nets {
		for _, p := range nl.Nets[ni].Pins {
			e.first[p.Cell+1]++
			e.netPins = append(e.netPins, netPin{cell: int32(p.Cell), off: p.Offset})
		}
	}
	for ci := 0; ci < n; ci++ {
		e.first[ci+1] += e.first[ci]
	}
	e.pins = make([]cellPin, e.first[n])
	e.alones = make([]aloneBox, e.first[n])
	next := append([]int(nil), e.first[:n]...)
	for ni := range nl.Nets {
		for _, p := range nl.Nets[ni].Pins {
			e.pins[next[p.Cell]] = cellPin{net: ni, off: p.Offset}
			next[p.Cell]++
		}
	}
	return e
}

// moveCell commits cell ci to position to and updates the cached boxes
// of its nets in place. A net goes stale only when one of its extremes
// loses every pin.
func (e *netBoxes) moveCell(ci int, to geom.Point) {
	from := e.pos[ci]
	if !(to.X < from.X || to.X > from.X || to.Y < from.Y || to.Y > from.Y) {
		return
	}
	e.pos[ci], e.nl.Cells[ci].Pos = to, to
	pins := e.pins[e.first[ci]:e.first[ci+1]]
	for i := 0; i < len(pins); {
		ns, j := &e.net[pins[i].net], i+1
		for j < len(pins) && pins[j].net == pins[i].net {
			j++
		}
		e.ver[pins[i].net]++
		if ns.valid {
			b, ext := ns.box, ns.ext
			for _, pin := range pins[i:j] {
				ext = drop(ext, b, from.Add(pin.off))
			}
			// An extreme left empty is refilled only by a new pin on or
			// beyond it, which then starts its count afresh.
			for _, pin := range pins[i:j] {
				b, ext = grow(b, ext, to.Add(pin.off))
			}
			ns.box, ns.ext = b, ext
			ns.valid = ext[loX] > 0 && ext[hiX] > 0 && ext[loY] > 0 && ext[hiY] > 0
		}
		i = j
	}
}

// commit applies every move of a set.
func (e *netBoxes) commit(moves []move) {
	for _, m := range moves {
		e.moveCell(m.cell, m.to)
	}
}

// drop takes a pin at q, which lies inside box b, off b's extreme counts.
func drop(ext [4]int32, b geom.Rect, q geom.Point) [4]int32 {
	if q.X <= b.Lo.X {
		ext[loX]--
	}
	if q.X >= b.Hi.X {
		ext[hiX]--
	}
	if q.Y <= b.Lo.Y {
		ext[loY]--
	}
	if q.Y >= b.Hi.Y {
		ext[hiY]--
	}
	return ext
}

// grow adds a pin at q to box r and its extreme counts.
func grow(r geom.Rect, ext [4]int32, q geom.Point) (geom.Rect, [4]int32) {
	if q.X < r.Lo.X {
		r.Lo.X, ext[loX] = q.X, 1
	} else if q.X <= r.Lo.X {
		ext[loX]++
	}
	if q.X > r.Hi.X {
		r.Hi.X, ext[hiX] = q.X, 1
	} else if q.X >= r.Hi.X {
		ext[hiX]++
	}
	if q.Y < r.Lo.Y {
		r.Lo.Y, ext[loY] = q.Y, 1
	} else if q.Y <= r.Lo.Y {
		ext[loY]++
	}
	if q.Y > r.Hi.Y {
		r.Hi.Y, ext[hiY] = q.Y, 1
	} else if q.Y >= r.Hi.Y {
		ext[hiY]++
	}
	return r, ext
}

// scan returns the bounding box of net ni and its extreme counts, leaving
// out the cells of the current move set when skipMoved. The counts are
// zero when no pin is left.
func (e *netBoxes) scan(ni int, skipMoved bool) (r geom.Rect, ext [4]int32) {
	started := false
	for _, p := range e.netPins[e.netFirst[ni]:e.netFirst[ni+1]] {
		if skipMoved && e.mark[p.cell] == e.stamp {
			continue
		}
		q := e.pos[p.cell].Add(p.off)
		if started {
			r, ext = grow(r, ext, q)
		} else {
			r, ext, started = geom.Rect{Lo: q, Hi: q}, [4]int32{1, 1, 1, 1}, true
		}
	}
	return r, ext
}

// cached returns net ni's box and extreme counts, rescanning a stale net.
func (e *netBoxes) cached(ni int) (geom.Rect, [4]int32) {
	ns := &e.net[ni]
	if !ns.valid {
		e.rescan(ni)
	}
	return ns.box, ns.ext
}

// rescan refreshes stale net ni's cached box and counts.
func (e *netBoxes) rescan(ni int) {
	ns := &e.net[ni]
	ns.box, ns.ext = e.scan(ni, false)
	ns.valid = true
}

// markSet starts a new move set holding cells.
func (e *netBoxes) markSet(cells []int) {
	e.stamp++
	if e.stamp == 0 {
		clear(e.mark)
		e.stamp = 1
	}
	for _, c := range cells {
		e.mark[c] = e.stamp
	}
}

// without returns net ni's pins outside the move set given box b, a box
// of some of the net's pins that holds every pin outside the set, and its
// extreme counts ext with the set's pins taken off. While every extreme
// keeps a pin, b is the box of the pins outside the set; otherwise the net
// is rescanned without the set.
func (e *netBoxes) without(ni int, b geom.Rect, ext [4]int32) outside {
	if ext[loX] > 0 && ext[hiX] > 0 && ext[loY] > 0 && ext[hiY] > 0 {
		return outside{box: b, ext: ext}
	}
	b, ext = e.scan(ni, true)
	return outside{box: b, ext: ext}
}

// alone returns net ni without cell c, whose pins on ni start at
// e.pins[r]: the box of its other pins, and its cost. c must be the only
// cell of the move set on ni. The answer is kept per (cell, net) and
// reused until a pin of the net moves.
func (e *netBoxes) alone(ni, c, r int) *aloneBox {
	slot, ver := &e.alones[r], e.ver[ni]
	if slot.ver == ver {
		return slot
	}
	b, ext := e.cached(ni)
	pos := e.pos[c]
	for p, end := r, e.first[c+1]; p < end && e.pins[p].net == ni; p++ {
		ext = drop(ext, b, pos.Add(e.pins[p].off))
	}
	slot.outside, slot.cost, slot.ver = e.without(ni, b, ext), e.w[ni]*halfPerimeter(b), ver
	return slot
}

// stage fills s with the move set cells: its nets are every net the cells
// are on, in ascending order.
func (e *netBoxes) stage(s *staging, cells []int) {
	e.markSet(cells)
	s.cells = append(s.cells[:0], cells...)
	s.nets, s.net, s.pins, s.before = s.nets[:0], s.net[:0], s.pins[:0], 0
	cur := e.cursor[:0]
	for _, c := range cells {
		cur = append(cur, e.first[c])
	}
	e.cursor = cur
	for {
		// The next net is the smallest one a cell's pin merge stands at.
		ni := -1
		for k, c := range cells {
			if p := cur[k]; p < e.first[c+1] && (ni < 0 || e.pins[p].net < ni) {
				ni = e.pins[p].net
			}
		}
		if ni < 0 {
			return
		}
		sn := stagedNet{w: e.w[ni]}
		// one is the only staged cell on ni (-2 when there are several)
		// and run its first pin there.
		start, one, run := len(s.pins), -1, 0
		for k, c := range cells {
			p, end := cur[k], e.first[c+1]
			if p == end || e.pins[p].net != ni {
				continue
			}
			if one == -1 {
				one, run = k, p
			} else {
				one = -2
			}
			for ; p < end && e.pins[p].net == ni; p++ {
				s.pins = append(s.pins, stagedPin{k, e.pins[p].off})
			}
			cur[k] = p
		}
		if one >= 0 {
			a := e.alone(ni, cells[one], run)
			sn.outside, sn.cost = a.outside, a.cost
		} else {
			b, ext := e.cached(ni)
			for _, pin := range s.pins[start:] {
				ext = drop(ext, b, e.pos[cells[pin.k]].Add(pin.off))
			}
			sn.outside, sn.cost = e.without(ni, b, ext), sn.w*halfPerimeter(b)
		}
		s.before += sn.cost
		sn.end = len(s.pins)
		s.nets = append(s.nets, ni)
		s.net = append(s.net, sn)
	}
}

// pricePlus returns Σ w·HPWL before and after moving base's cells to to
// and cell c, which base must not hold, to cTo, over base's nets merged
// with c's in ascending order. Only c's nets are priced here: base's
// other nets keep their staged boxes, and a net shared with base starts
// from base's staged box.
func (e *netBoxes) pricePlus(base *staging, to []geom.Point, c int, cTo geom.Point) (before, after float64) {
	e.markSet(base.cells)
	e.mark[c] = e.stamp
	p, end := e.first[c], e.first[c+1]
	i, from := 0, 0 // base's next net and the start of its pins
	for i < len(base.nets) || p < end {
		if p == end || i < len(base.nets) && base.nets[i] < e.pins[p].net {
			// A net c is not on.
			sn := &base.net[i]
			b, _ := placed(&sn.outside, base.pins[from:sn.end], to)
			before += sn.cost
			after += sn.w * halfPerimeter(b)
			from = sn.end
			i++
			continue
		}
		ni, run := e.pins[p].net, p
		for p < end && e.pins[p].net == ni {
			p++
		}
		var o outside
		var w, cost float64
		var pins []stagedPin
		if i < len(base.nets) && base.nets[i] == ni {
			// Shared with base: take c's pins off base's staged box.
			sn := &base.net[i]
			pos, ext := e.pos[c], sn.ext
			for _, pin := range e.pins[run:p] {
				ext = drop(ext, sn.box, pos.Add(pin.off))
			}
			o, w, cost, pins = e.without(ni, sn.box, ext), sn.w, sn.cost, base.pins[from:sn.end]
			from = sn.end
			i++
		} else {
			a := e.alone(ni, c, run)
			o, w, cost = a.outside, e.w[ni], a.cost
		}
		b, started := placed(&o, pins, to)
		for _, pin := range e.pins[run:p] {
			q := cTo.Add(pin.off)
			if !started {
				b, started = geom.Rect{Lo: q, Hi: q}, true
			}
			b = extend(b, q)
		}
		before += cost
		after += w * halfPerimeter(b)
	}
	return before, after
}

// fold returns Σ w·HPWL over s's nets with each staged cell s.cells[k] at
// to[k] and every other pin where it is, accumulated in s.nets order.
func (e *netBoxes) fold(s *staging, to []geom.Point) float64 {
	var after float64
	from := 0
	for i := range s.net {
		sn := &s.net[i]
		b, _ := placed(&sn.outside, s.pins[from:sn.end], to)
		after += sn.w * halfPerimeter(b)
		from = sn.end
	}
	return after
}

// placed returns the box of a net's pins outside a staged set, o, with
// the set's pins on the net added at their new centers to; started is
// false, and the box zero, for a net with no pin at all.
func placed(o *outside, pins []stagedPin, to []geom.Point) (b geom.Rect, started bool) {
	b, started = o.box, !o.empty()
	if !started && len(pins) > 0 {
		q := to[pins[0].k].Add(pins[0].off)
		b, started, pins = geom.Rect{Lo: q, Hi: q}, true, pins[1:]
	}
	for _, pin := range pins {
		b = extend(b, to[pin.k].Add(pin.off))
	}
	return b, started
}

// halfPerimeter is geom.Rect.HalfPerimeter for a box with Lo ≤ Hi, where
// the clamp at zero never applies, without the math.Max calls that stop
// it from inlining. Differences of equal coordinates are +0, so the result
// is the same bit for bit.
func halfPerimeter(r geom.Rect) float64 { return (r.Hi.X - r.Lo.X) + (r.Hi.Y - r.Lo.Y) }

// extend returns r grown to cover q.
func extend(r geom.Rect, q geom.Point) geom.Rect {
	if q.X < r.Lo.X {
		r.Lo.X = q.X
	}
	if q.Y < r.Lo.Y {
		r.Lo.Y = q.Y
	}
	if q.X > r.Hi.X {
		r.Hi.X = q.X
	}
	if q.Y > r.Hi.Y {
		r.Hi.Y = q.Y
	}
	return r
}
