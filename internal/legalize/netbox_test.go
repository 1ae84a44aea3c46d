package legalize

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// boxNetlist draws a small netlist from next (next(n) is in [0, n)).
// Positions and pin offsets sit on a coarse grid so pins tie on box
// extremes; cells may carry several pins on one net, some cells are fixed,
// a third of the nets have two pins and the rest one to six.
func boxNetlist(next func(int) int) *netlist.Netlist {
	nl := &netlist.Netlist{Name: "box", Region: geom.NewRegion(2, 1, 8)}
	nc := 2 + next(7)
	for ci := 0; ci < nc; ci++ {
		nl.Cells = append(nl.Cells, netlist.Cell{W: 1, H: 1, Fixed: next(4) == 0, Pos: gridPoint(next)})
	}
	offs := []float64{-0.5, 0, 0.25, 0.5}
	nn := 1 + next(8)
	for ni := 0; ni < nn; ni++ {
		net := netlist.Net{Weight: []float64{1, 0.5, 2.5}[next(3)]}
		k := 1 + next(6)
		if next(3) == 0 {
			k = 2
		}
		for j := 0; j < k; j++ {
			off := geom.Point{X: offs[next(len(offs))], Y: offs[next(len(offs))]}
			net.Pins = append(net.Pins, netlist.Pin{Cell: next(nc), Offset: off})
		}
		nl.Nets = append(nl.Nets, net)
	}
	return nl
}

// gridPoint is a cell center on a half-unit grid inside boxNetlist's
// two-row, eight-wide region.
func gridPoint(next func(int) int) geom.Point {
	return geom.Point{X: 0.5 + 0.5*float64(next(15)), Y: 0.5 + float64(next(2))}
}

// boxScript builds a pass state over nl, with one segment per row holding
// that row's movable cells, and runs steps operations drawn from next:
// evaluations of random move sets (1–3 cells to grid points, two-cell
// swaps, or every cell of one net), committed moves, re-clumps, one move
// set staged once and priced at several placements, and one cell staged
// once and priced with several partners, swapped and at random points.
// Every price must equal
// Σ w·NetHPWL over the same nets with the cells actually moved, bit for
// bit, every staged box must equal a scan of the pins outside the set,
// and after every step each valid cached box and extreme count must equal
// a fresh scan.
func boxScript(t *testing.T, nl *netlist.Netlist, steps int, next func(int) int) {
	t.Helper()
	segs := []*Segment{{Row: 0, Y: 0.5, X0: 0, X1: 8}, {Row: 1, Y: 1.5, X0: 0, X1: 8}}
	for ci := range nl.Cells {
		if !nl.Cells[ci].Fixed {
			s := segs[nl.Region.RowAt(nl.Cells[ci].Pos.Y)]
			s.cells = append(s.cells, ci)
			s.used++
		}
	}
	st := newPassState(nl, segs)
	for step := 0; step < steps; step++ {
		switch next(6) {
		case 3:
			st.clump()
		case 4:
			checkPlacements(t, st, boxMoves(nl, next), next)
		case 5:
			checkSwaps(t, st, next)
		default:
			moves := boxMoves(nl, next)
			if len(moves) > 0 {
				checkEval(t, st, moves)
				if next(3) == 0 {
					st.boxes.commit(moves)
				}
			}
		}
		checkCache(t, st.boxes)
		if t.Failed() {
			t.Fatalf("step %d", step)
		}
	}
}

// boxMoves draws one move set over distinct movable cells.
func boxMoves(nl *netlist.Netlist, next func(int) int) []move {
	var cells []int
	add := func(ci int) {
		if nl.Cells[ci].Fixed || len(cells) == 3 {
			return
		}
		for _, c := range cells {
			if c == ci {
				return
			}
		}
		cells = append(cells, ci)
	}
	switch next(3) {
	case 0: // one to three cells to grid points
		for k := 1 + next(3); k > 0; k-- {
			add(next(len(nl.Cells)))
		}
		moves := make([]move, len(cells))
		for k, ci := range cells {
			moves[k] = move{ci, gridPoint(next)}
		}
		return moves
	case 1: // a swap
		add(next(len(nl.Cells)))
		add(next(len(nl.Cells)))
		if len(cells) < 2 {
			return nil
		}
		a, b := cells[0], cells[1]
		return []move{{a, nl.Cells[b].Pos}, {b, nl.Cells[a].Pos}}
	default: // every pin of one net
		for _, p := range nl.Nets[next(len(nl.Nets))].Pins {
			add(p.Cell)
		}
		moves := make([]move, len(cells))
		for k, ci := range cells {
			moves[k] = move{ci, gridPoint(next)}
		}
		return moves
	}
}

// rescanned returns Σ w·NetHPWL over nets, summed in their order, with
// each moves[k].cell at moves[k].to; the positions are restored after.
func rescanned(nl *netlist.Netlist, nets []int, moves []move) float64 {
	saved := nl.Snapshot()
	for _, m := range moves {
		nl.Cells[m.cell].Pos = m.to
	}
	var s float64
	for _, ni := range nets {
		s += nl.Nets[ni].Weight * nl.NetHPWL(ni)
	}
	for ci := range nl.Cells {
		nl.Cells[ci].Pos = saved[ci]
	}
	return s
}

// incident returns the ascending union of the nets of the moved cells.
func incident(nl *netlist.Netlist, moves []move) []int {
	on := map[int]bool{}
	for _, m := range moves {
		for _, ni := range nl.CellNets()[m.cell] {
			on[ni] = true
		}
	}
	var nets []int
	for ni := range nl.Nets {
		if on[ni] {
			nets = append(nets, ni)
		}
	}
	return nets
}

// same reports whether a and b have the same bits.
func same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkEval compares eval against a full rescan on the incident nets of
// the moved cells, which the stage must list ascending and once each.
func checkEval(t *testing.T, st *passState, moves []move) {
	t.Helper()
	nets := incident(st.nl, moves)
	before, after := st.eval(moves)
	if !slices.Equal(st.sc.base.nets, nets) {
		t.Fatalf("moves %v: staged nets %v, want %v", moves, st.sc.base.nets, nets)
	}
	checkStaged(t, st.boxes, &st.sc.base)
	rb, ra := rescanned(st.nl, nets, nil), rescanned(st.nl, nets, moves)
	if !same(before, rb) || !same(after, ra) {
		t.Errorf("moves %v: eval = (%v, %v), rescan = (%v, %v)", moves, before, after, rb, ra)
	}
}

// checkPlacements stages the cells of moves once and folds up to three
// placements of them: the moves' own targets and random grid points.
func checkPlacements(t *testing.T, st *passState, moves []move, next func(int) int) {
	t.Helper()
	if len(moves) == 0 {
		return
	}
	var cells []int
	for _, m := range moves {
		cells = append(cells, m.cell)
	}
	s := &st.sc.base
	st.boxes.stage(s, cells)
	checkStaged(t, st.boxes, s)
	nets := incident(st.nl, moves)
	if rb := rescanned(st.nl, nets, nil); !same(s.before, rb) {
		t.Errorf("cells %v: staged before = %v, rescan = %v", cells, s.before, rb)
	}
	to := make([]geom.Point, len(moves))
	for r, n := 0, 1+next(3); r < n; r++ {
		for k := range moves {
			if r > 0 {
				moves[k].to = gridPoint(next)
			}
			to[k] = moves[k].to
		}
		if got, ra := st.boxes.fold(s, to), rescanned(st.nl, nets, moves); !same(got, ra) {
			t.Errorf("moves %v: fold = %v, rescan = %v", moves, got, ra)
		}
	}
}

// checkSwaps stages one movable cell and prices, against that one stage,
// its swap with up to three other movable cells, as tryGlobalMove does,
// and each such pair moved to random grid points.
func checkSwaps(t *testing.T, st *passState, next func(int) int) {
	t.Helper()
	nl := st.nl
	ci := next(len(nl.Cells))
	if nl.Cells[ci].Fixed {
		return
	}
	s := &st.sc.base
	st.boxes.stage(s, []int{ci})
	checkStaged(t, st.boxes, s)
	for r := 1 + next(3); r > 0; r-- {
		cj := next(len(nl.Cells))
		if cj == ci || nl.Cells[cj].Fixed {
			continue
		}
		swap := []move{{ci, nl.Cells[cj].Pos}, {cj, nl.Cells[ci].Pos}}
		for _, moves := range [][]move{swap, {{ci, gridPoint(next)}, {cj, gridPoint(next)}}} {
			before, after := st.boxes.pricePlus(s, []geom.Point{moves[0].to}, cj, moves[1].to)
			nets := incident(nl, moves)
			if rb, ra := rescanned(nl, nets, nil), rescanned(nl, nets, moves); !same(before, rb) || !same(after, ra) {
				t.Errorf("moves %v: pricePlus = (%v, %v), rescan = (%v, %v)", moves, before, after, rb, ra)
			}
		}
	}
}

// checkStaged requires every staged net's box, extreme counts and empty
// flag to equal a scan of the net's pins outside the staged cells.
func checkStaged(t *testing.T, e *netBoxes, s *staging) {
	t.Helper()
	for i, ni := range s.nets {
		var bb geom.BBox
		for _, p := range e.nl.Nets[ni].Pins {
			if !slices.Contains(s.cells, p.Cell) {
				bb.Add(e.nl.PinPos(p))
			}
		}
		sn := s.net[i]
		if bb.Count() == 0 {
			if !sn.empty() {
				t.Errorf("cells %v, net %d: staged box %v, but no pin lies outside", s.cells, ni, sn.box)
			}
			continue
		}
		if sn.empty() || sn.box != bb.Rect() || sn.ext != extremes(e.nl, ni, bb.Rect(), s.cells) {
			t.Errorf("cells %v, net %d: staged %v %v empty=%v, scan gives %v %v", s.cells, ni, sn.box, sn.ext, sn.empty(),
				bb.Rect(), extremes(e.nl, ni, bb.Rect(), s.cells))
		}
	}
}

// extremes counts net ni's pins outside skip on each extreme of r.
func extremes(nl *netlist.Netlist, ni int, r geom.Rect, skip []int) [4]int32 {
	var ext [4]int32
	for _, p := range nl.Nets[ni].Pins {
		if slices.Contains(skip, p.Cell) {
			continue
		}
		q := nl.PinPos(p)
		for k, on := range [4]bool{same(q.X, r.Lo.X), same(q.X, r.Hi.X), same(q.Y, r.Lo.Y), same(q.Y, r.Hi.Y)} {
			if on {
				ext[k]++
			}
		}
	}
	return ext
}

// checkCache requires the position mirror to equal the netlist's cells,
// and every valid cached net box and extreme count to equal a fresh scan
// of the net.
func checkCache(t *testing.T, e *netBoxes) {
	t.Helper()
	for ci := range e.nl.Cells {
		if e.pos[ci] != e.nl.Cells[ci].Pos {
			t.Errorf("cell %d: mirrored at %v, placed at %v", ci, e.pos[ci], e.nl.Cells[ci].Pos)
		}
	}
	for ni := range e.nl.Nets {
		ns := e.net[ni]
		if !ns.valid {
			continue
		}
		r := e.nl.NetBBox(ni)
		if ext := extremes(e.nl, ni, r, nil); ns.box != r || ns.ext != ext {
			t.Errorf("net %d: cached box %v counts %v, scan gives %v %v", ni, ns.box, ns.ext, r, ext)
		}
	}
}

// TestNetBoxesMatchRescan drives random netlists through random move,
// commit and clump scripts; see boxScript for what is checked.
func TestNetBoxesMatchRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		nl := boxNetlist(rng.Intn)
		boxScript(t, nl, 40, rng.Intn)
	}
}

// TestNetBoxesCommitKeepsUnmovedNets: committing a move updates the
// cached boxes of the moved cell's nets in place, so they stay valid and
// equal a fresh scan, and leaves the other nets alone; a position write
// that changes nothing changes nothing, and a net goes stale only when
// one of its extremes loses every pin.
func TestNetBoxesCommitKeepsUnmovedNets(t *testing.T) {
	nl := &netlist.Netlist{Cells: []netlist.Cell{{Pos: geom.Point{X: 1}}, {Pos: geom.Point{X: 2}}, {Pos: geom.Point{X: 5}}}}
	nl.Nets = []netlist.Net{
		{Weight: 1, Pins: []netlist.Pin{{Cell: 0}, {Cell: 1}}},
		{Weight: 1, Pins: []netlist.Pin{{Cell: 1}, {Cell: 2}}},
	}
	e := newNetBoxes(nl)
	b0, _ := e.cached(0)
	b1, _ := e.cached(1)
	if got := halfPerimeter(b0) + halfPerimeter(b1); got != 4 {
		t.Fatalf("HPWL = %v, want 4", got)
	}
	e.moveCell(0, nl.Cells[0].Pos)
	if !e.net[0].valid || !e.net[1].valid || e.net[0].box != b0 || e.net[1].box != b1 {
		t.Error("an unchanged position changed a cached box")
	}
	e.moveCell(0, geom.Point{X: 0})
	if !e.net[0].valid || !e.net[1].valid {
		t.Error("moving cell 0 outward made a net stale")
	}
	checkCache(t, e)
	if e.net[0].box != (geom.Rect{Hi: geom.Point{X: 2}}) || e.net[1].box != b1 {
		t.Errorf("boxes %v %v, want net 0 [0,2] and net 1 unchanged", e.net[0].box, e.net[1].box)
	}
	e.moveCell(0, geom.Point{X: 3})
	if e.net[0].valid || !e.net[1].valid {
		t.Error("after moving cell 0 off net 0's left edge: want net 0 stale and net 1 valid")
	}
}

// FuzzNetBoxes decodes a netlist and a move/commit/clump script from the
// input bytes and runs it through boxScript.
func FuzzNetBoxes(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 7, 1, 2, 3, 0, 4, 1, 9, 9, 2, 0, 1, 3, 3, 2, 1, 0, 0, 2, 6, 1, 1, 2, 0, 3, 5, 8})
	seed := make([]byte, 64)
	binary.LittleEndian.PutUint64(seed, 0x9e3779b97f4a7c15)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b % n
		}
		nl := boxNetlist(next)
		boxScript(t, nl, 1+len(data)/4, next)
	})
}
