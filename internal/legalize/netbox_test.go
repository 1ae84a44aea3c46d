package legalize

import (
	"encoding/binary"
	"math"
	"math/rand"
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
// swaps, or every cell of one net), committed moves, and re-clumps. Every
// evaluation must equal Σ w·NetHPWL over the same nets with the cells
// actually moved, bit for bit, and after every step each valid cached box
// and extreme count must equal a fresh scan.
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
		if next(4) == 3 {
			st.clump()
		} else {
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

// checkEval compares the engine against a full rescan on the incident nets
// of the moved cells, which incidentNets must list ascending and once each.
func checkEval(t *testing.T, st *passState, moves []move) {
	t.Helper()
	nl := st.nl
	cells := make([]int, len(moves))
	want := map[int]bool{}
	for k, m := range moves {
		cells[k] = m.cell
		for _, ni := range st.idx[m.cell] {
			want[ni] = true
		}
	}
	nets := st.sc.incidentNets(st.idx, cells...)
	for k, ni := range nets {
		if !want[ni] || k > 0 && ni <= nets[k-1] {
			t.Fatalf("incidentNets(%v) = %v, not the ascending union of the cells' nets", cells, nets)
		}
	}
	if len(nets) != len(want) {
		t.Fatalf("incidentNets(%v) = %v, missing nets", cells, nets)
	}
	before, after := st.boxes.eval(nets, moves)

	var rb, ra float64
	for _, ni := range nets {
		rb += nl.Nets[ni].Weight * nl.NetHPWL(ni)
	}
	saved := nl.Snapshot()
	for _, m := range moves {
		nl.Cells[m.cell].Pos = m.to
	}
	for _, ni := range nets {
		ra += nl.Nets[ni].Weight * nl.NetHPWL(ni)
	}
	for ci := range nl.Cells {
		nl.Cells[ci].Pos = saved[ci]
	}
	if math.Float64bits(before) != math.Float64bits(rb) || math.Float64bits(after) != math.Float64bits(ra) {
		t.Errorf("moves %v: eval = (%v, %v), rescan = (%v, %v)", moves, before, after, rb, ra)
	}
}

// checkCache requires every valid cached net box and extreme count to
// equal a fresh scan of the net.
func checkCache(t *testing.T, e *netBoxes) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for ni := range e.nl.Nets {
		if !e.valid[ni] {
			continue
		}
		r := e.nl.NetBBox(ni)
		var ext [4]int32
		for _, p := range e.nl.Nets[ni].Pins {
			q := e.nl.PinPos(p)
			for k, on := range [4]bool{same(q.X, r.Lo.X), same(q.X, r.Hi.X), same(q.Y, r.Lo.Y), same(q.Y, r.Hi.Y)} {
				if on {
					ext[k]++
				}
			}
		}
		if e.box[ni] != r || e.ext[ni] != ext {
			t.Errorf("net %d: cached box %v counts %v, scan gives %v %v", ni, e.box[ni], e.ext[ni], r, ext)
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

// TestNetBoxesCommitKeepsUnmovedNets: committing a move leaves the cached
// boxes of nets the moved cells are not on valid, and a position write
// that changes nothing invalidates nothing.
func TestNetBoxesCommitKeepsUnmovedNets(t *testing.T) {
	nl := &netlist.Netlist{Cells: []netlist.Cell{{Pos: geom.Point{X: 1}}, {Pos: geom.Point{X: 2}}, {Pos: geom.Point{X: 5}}}}
	nl.Nets = []netlist.Net{
		{Weight: 1, Pins: []netlist.Pin{{Cell: 0}, {Cell: 1}}},
		{Weight: 1, Pins: []netlist.Pin{{Cell: 1}, {Cell: 2}}},
	}
	e := newNetBoxes(nl)
	if got := e.sum([]int{0, 1}); got != 4 {
		t.Fatalf("sum = %v, want 4", got)
	}
	e.moveCell(0, nl.Cells[0].Pos)
	if !e.valid[0] || !e.valid[1] {
		t.Error("an unchanged position invalidated a net")
	}
	e.moveCell(0, geom.Point{X: 0})
	if e.valid[0] || !e.valid[1] {
		t.Errorf("after moving cell 0: valid = %v, want [false true]", e.valid)
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
