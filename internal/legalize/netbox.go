package legalize

import (
	"repro/internal/geom"
	"repro/internal/netlist"
)

// netBoxes is the exact, incremental cost engine behind every improvement
// pass. It caches each net's bounding box together with the number of pins
// lying on each of the box's four extremes (left, right, bottom, top).
//
// A candidate move of a few cells is evaluated without touching cell
// positions: the moved pins' old positions are taken off the extreme counts
// and their new positions are folded into the cached box. While every
// extreme keeps at least one unmoved pin, the unmoved pins still span
// exactly the cached box, so the box after the move is the cached box
// extended by the new pins. Only when every pin on some extreme moves is
// the net rescanned, skipping the moved cells. Min and max are exact, so
// each per-net HPWL equals netlist.NetHPWL bit for bit, and the passes sum
// them in the same ascending net order as a full rescan would: every swap,
// reorder and matching decision is the one the rescan would make.
//
// Evaluation writes no cell position. Every position the passes write —
// committed swaps, reorders and matchings, and the re-clumping between
// them — goes through moveCell, which marks stale the incident nets of a
// cell that actually moved. Stale nets are rescanned lazily on their next
// evaluation.
type netBoxes struct {
	nl *netlist.Netlist
	// Cell ci's pins are pins[first[ci]:first[ci+1]], in ascending net
	// order.
	first []int
	pins  []cellPin
	box   []geom.Rect
	ext   [][4]int32 // pins on each extreme, indexed by loX..hiY
	valid []bool
	// mark[ci] == stamp while ci belongs to the move set being evaluated.
	mark   []uint32
	stamp  uint32
	cursor []int // per moved cell, its next pin in the net merge
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
		nl:    nl,
		first: make([]int, n+1),
		box:   make([]geom.Rect, len(nl.Nets)),
		ext:   make([][4]int32, len(nl.Nets)),
		valid: make([]bool, len(nl.Nets)),
		mark:  make([]uint32, n),
	}
	for ni := range nl.Nets {
		for _, p := range nl.Nets[ni].Pins {
			e.first[p.Cell+1]++
		}
	}
	for ci := 0; ci < n; ci++ {
		e.first[ci+1] += e.first[ci]
	}
	e.pins = make([]cellPin, e.first[n])
	next := append([]int(nil), e.first[:n]...)
	for ni := range nl.Nets {
		for _, p := range nl.Nets[ni].Pins {
			e.pins[next[p.Cell]] = cellPin{net: ni, off: p.Offset}
			next[p.Cell]++
		}
	}
	return e
}

// moveCell commits cell ci to position to. Nets go stale only when the
// position really changes.
func (e *netBoxes) moveCell(ci int, to geom.Point) {
	p := &e.nl.Cells[ci].Pos
	if !(to.X < p.X || to.X > p.X || to.Y < p.Y || to.Y > p.Y) {
		return
	}
	*p = to
	for _, pin := range e.pins[e.first[ci]:e.first[ci+1]] {
		e.valid[pin.net] = false
	}
}

// commit applies every move of a set.
func (e *netBoxes) commit(moves []move) {
	for _, m := range moves {
		e.moveCell(m.cell, m.to)
	}
}

// scan returns the bounding box of net ni and its extreme counts, leaving
// out the cells of the current move set when skipMoved; n is the number of
// pins scanned.
func (e *netBoxes) scan(ni int, skipMoved bool) (r geom.Rect, ext [4]int32, n int) {
	for _, p := range e.nl.Nets[ni].Pins {
		if skipMoved && e.mark[p.Cell] == e.stamp {
			continue
		}
		q := e.nl.PinPos(p)
		if n == 0 {
			r, ext = geom.Rect{Lo: q, Hi: q}, [4]int32{1, 1, 1, 1}
			n++
			continue
		}
		n++
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
	}
	return r, ext, n
}

// cached returns net ni's box and extreme counts, rescanning a stale net.
func (e *netBoxes) cached(ni int) (geom.Rect, [4]int32) {
	if !e.valid[ni] {
		e.box[ni], e.ext[ni], _ = e.scan(ni, false)
		e.valid[ni] = true
	}
	return e.box[ni], e.ext[ni]
}

// sum returns Σ w·HPWL over nets at the current positions, accumulated in
// the given order.
func (e *netBoxes) sum(nets []int) float64 {
	var s float64
	for _, ni := range nets {
		b, _ := e.cached(ni)
		s += e.nl.Nets[ni].Weight * halfPerimeter(b)
	}
	return s
}

// eval returns Σ w·HPWL over nets before and after moving each moves[k].cell
// to moves[k].to, both accumulated in the order of nets, which must be
// ascending. No position is written.
func (e *netBoxes) eval(nets []int, moves []move) (before, after float64) {
	e.stamp++
	if e.stamp == 0 {
		clear(e.mark)
		e.stamp = 1
	}
	cur := e.cursor[:0]
	for _, m := range moves {
		e.mark[m.cell] = e.stamp
		cur = append(cur, e.first[m.cell])
	}
	e.cursor = cur
	for _, ni := range nets {
		b, ext := e.cached(ni)
		w := e.nl.Nets[ni].Weight
		before += w * halfPerimeter(b)
		var add geom.Rect
		added := false
		for k, m := range moves {
			pos := e.nl.Cells[m.cell].Pos
			c, end := cur[k], e.first[m.cell+1]
			for c < end && e.pins[c].net < ni {
				c++
			}
			for ; c < end && e.pins[c].net == ni; c++ {
				off := e.pins[c].off
				old := pos.Add(off)
				if old.X <= b.Lo.X {
					ext[loX]--
				}
				if old.X >= b.Hi.X {
					ext[hiX]--
				}
				if old.Y <= b.Lo.Y {
					ext[loY]--
				}
				if old.Y >= b.Hi.Y {
					ext[hiY]--
				}
				add = extend(add, added, m.to.Add(off))
				added = true
			}
			cur[k] = c
		}
		if ext[loX] <= 0 || ext[hiX] <= 0 || ext[loY] <= 0 || ext[hiY] <= 0 {
			// Every pin on some extreme moved: the unmoved pins' box
			// must be rescanned.
			var n int
			b, _, n = e.scan(ni, true)
			if n == 0 {
				b = add
				added = false
			}
		}
		if added {
			b = union(b, add)
		}
		after += w * halfPerimeter(b)
	}
	return before, after
}

// halfPerimeter is geom.Rect.HalfPerimeter for a box with Lo ≤ Hi, where
// the clamp at zero never applies, without the math.Max calls that stop
// it from inlining. Differences of equal coordinates are +0, so the result
// is the same bit for bit.
func halfPerimeter(r geom.Rect) float64 { return (r.Hi.X - r.Lo.X) + (r.Hi.Y - r.Lo.Y) }

// extend returns r grown to cover q; a box that is not yet started
// becomes the point q.
func extend(r geom.Rect, started bool, q geom.Point) geom.Rect {
	if !started {
		return geom.Rect{Lo: q, Hi: q}
	}
	return union(r, geom.Rect{Lo: q, Hi: q})
}

// union returns the smallest box covering a and b.
func union(a, b geom.Rect) geom.Rect {
	if b.Lo.X < a.Lo.X {
		a.Lo.X = b.Lo.X
	}
	if b.Lo.Y < a.Lo.Y {
		a.Lo.Y = b.Lo.Y
	}
	if b.Hi.X > a.Hi.X {
		a.Hi.X = b.Hi.X
	}
	if b.Hi.Y > a.Hi.Y {
		a.Hi.Y = b.Hi.Y
	}
	return a
}
