// Package netlist defines the circuit model every placement engine operates
// on: cells (standard cells, macro blocks, and fixed pads), pins with
// geometric offsets, and nets connecting pins. It also provides wire-length
// metrics, validation, statistics, and a plain-text interchange format.
//
// Cell positions always refer to the cell center, following the paper's
// formulation (§2.1).
package netlist

import (
	"fmt"

	"repro/internal/geom"
)

// PinDir is the signal direction of a pin, used by timing analysis.
type PinDir int

const (
	// Inout pins are ignored by timing analysis but still pull on wires.
	Inout PinDir = iota
	// Input pins are net sinks.
	Input
	// Output pins drive a net. A net should have at most one.
	Output
)

func (d PinDir) String() string {
	switch d {
	case Input:
		return "in"
	case Output:
		return "out"
	default:
		return "inout"
	}
}

// Cell is a placeable circuit element. A macro block is simply a big cell; a
// pad is a Fixed cell. Pos is the center of the cell.
type Cell struct {
	Name  string
	W, H  float64
	Fixed bool
	Pos   geom.Point
	// Delay is the intrinsic input-to-output delay of the cell in seconds.
	Delay float64
	// Power is the cell's dissipated power in arbitrary units, used by
	// heat-driven placement.
	Power float64
	// Seq marks sequential elements (flip-flops, latches). Sequential cells
	// and fixed pads are timing path endpoints.
	Seq bool
}

// Area returns the cell area.
func (c *Cell) Area() float64 { return c.W * c.H }

// Rect returns the cell footprint at its current position.
func (c *Cell) Rect() geom.Rect { return geom.RectCenteredAt(c.Pos, c.W, c.H) }

// Pin is one connection point of a net. Cell indexes into Netlist.Cells;
// Offset is relative to the cell center.
type Pin struct {
	Cell   int
	Offset geom.Point
	Dir    PinDir
	// Cap is the pin input capacitance in farads (sinks); drivers usually
	// leave it zero.
	Cap float64
}

// Net is a set of electrically connected pins.
type Net struct {
	Name string
	Pins []Pin
	// Weight scales the net's contribution to the wire-length objective.
	// Zero-valued nets are normalized to weight 1 by Netlist.Normalize.
	Weight float64
}

// Degree returns the number of pins on the net.
func (n *Net) Degree() int { return len(n.Pins) }

// Driver returns the index within n.Pins of the output pin, or -1 when the
// net has none.
func (n *Net) Driver() int {
	for i, p := range n.Pins {
		if p.Dir == Output {
			return i
		}
	}
	return -1
}

// Netlist is a complete placement problem: the circuit plus its region.
type Netlist struct {
	Name   string
	Cells  []Cell
	Nets   []Net
	Region geom.Region

	cellNets [][]int // lazily built: nets touching each cell
}

// PinPos returns the absolute position of pin p.
func (nl *Netlist) PinPos(p Pin) geom.Point {
	return nl.Cells[p.Cell].Pos.Add(p.Offset)
}

// NumMovable returns the number of non-fixed cells.
func (nl *Netlist) NumMovable() int {
	n := 0
	for i := range nl.Cells {
		if !nl.Cells[i].Fixed {
			n++
		}
	}
	return n
}

// IsBlock reports whether cell ci is a macro block: a movable cell taller
// than 1.5 row heights. A region without rows counts rows one unit high.
func (nl *Netlist) IsBlock(ci int) bool {
	rowH := 1.0
	if len(nl.Region.Rows) > 0 {
		rowH = nl.Region.Rows[0].Height
	}
	c := &nl.Cells[ci]
	return !c.Fixed && c.H > 1.5*rowH
}

// MovableArea returns the summed area of all movable cells.
func (nl *Netlist) MovableArea() float64 {
	var a float64
	for i := range nl.Cells {
		if !nl.Cells[i].Fixed {
			a += nl.Cells[i].Area()
		}
	}
	return a
}

// Utilization returns movable cell area divided by region area, the paper's
// supply scaling factor s (eq. 4).
func (nl *Netlist) Utilization() float64 {
	area := nl.Region.Area()
	if area <= 0 {
		return 0
	}
	return nl.MovableArea() / area
}

// AvgCellArea returns the average movable cell area (0 for empty designs).
func (nl *Netlist) AvgCellArea() float64 {
	n := nl.NumMovable()
	if n == 0 {
		return 0
	}
	return nl.MovableArea() / float64(n)
}

// CellNets returns, for each cell, the indices of the nets connected to it.
// The index is built on first use and cached; call InvalidateIndex after
// structural edits.
func (nl *Netlist) CellNets() [][]int {
	if nl.cellNets != nil {
		return nl.cellNets
	}
	idx := make([][]int, len(nl.Cells))
	for ni := range nl.Nets {
		seen := map[int]bool{}
		for _, p := range nl.Nets[ni].Pins {
			if !seen[p.Cell] {
				seen[p.Cell] = true
				idx[p.Cell] = append(idx[p.Cell], ni)
			}
		}
	}
	nl.cellNets = idx
	return idx
}

// InvalidateIndex discards cached structural indexes. Must be called after
// adding or removing cells, nets, or pins.
func (nl *Netlist) InvalidateIndex() { nl.cellNets = nil }

// Normalize fills defaulted fields: a net weight of 0 becomes 1, and a
// cell width or height of 0 becomes 1e-6. Any other value is kept, so
// Validate rejects a negative or non-finite one.
func (nl *Netlist) Normalize() {
	for i := range nl.Nets {
		if nl.Nets[i].Weight == 0 {
			nl.Nets[i].Weight = 1
		}
	}
	for i := range nl.Cells {
		if nl.Cells[i].W == 0 {
			nl.Cells[i].W = 1e-6
		}
		if nl.Cells[i].H == 0 {
			nl.Cells[i].H = 1e-6
		}
	}
}

// Validate checks structural consistency, and that every cell size,
// position, delay and power, net weight and pin offset and capacitance is
// a finite number, and returns the first problem found, or nil when the
// netlist is well formed.
func (nl *Netlist) Validate() error {
	if nl.Region.Outline.Empty() {
		return fmt.Errorf("netlist %q: empty placement region", nl.Name)
	}
	for i := range nl.Cells {
		c := &nl.Cells[i]
		if !isFiniteF(c.W) || !isFiniteF(c.H) || !isFiniteF(c.Pos.X) || !isFiniteF(c.Pos.Y) ||
			!isFiniteF(c.Delay) || !isFiniteF(c.Power) {
			return fmt.Errorf("cell %d (%q): non-finite size %gx%g, position (%g, %g), delay %g or power %g",
				i, c.Name, c.W, c.H, c.Pos.X, c.Pos.Y, c.Delay, c.Power)
		}
		if c.W < 0 || c.H < 0 {
			return fmt.Errorf("cell %d (%q): negative dimensions %gx%g", i, c.Name, c.W, c.H)
		}
	}
	for ni := range nl.Nets {
		n := &nl.Nets[ni]
		if len(n.Pins) < 2 {
			return fmt.Errorf("net %d (%q): fewer than 2 pins", ni, n.Name)
		}
		if !isFiniteF(n.Weight) || n.Weight < 0 {
			return fmt.Errorf("net %d (%q): weight %g, want finite and non-negative", ni, n.Name, n.Weight)
		}
		drivers := 0
		for pi, p := range n.Pins {
			if p.Cell < 0 || p.Cell >= len(nl.Cells) {
				return fmt.Errorf("net %d (%q) pin %d: cell index %d out of range", ni, n.Name, pi, p.Cell)
			}
			if !isFiniteF(p.Offset.X) || !isFiniteF(p.Offset.Y) || !isFiniteF(p.Cap) {
				return fmt.Errorf("net %d (%q) pin %d: non-finite offset (%g, %g) or capacitance %g",
					ni, n.Name, pi, p.Offset.X, p.Offset.Y, p.Cap)
			}
			if p.Dir == Output {
				drivers++
			}
		}
		if drivers > 1 {
			return fmt.Errorf("net %d (%q): %d driver pins", ni, n.Name, drivers)
		}
	}
	if nl.MovableArea() > nl.Region.Area()*(1+1e-9) && nl.Region.Area() > 0 {
		return fmt.Errorf("netlist %q: movable area %.4g exceeds region area %.4g",
			nl.Name, nl.MovableArea(), nl.Region.Area())
	}
	return nil
}

// Clone returns a deep copy of the netlist (positions included).
func (nl *Netlist) Clone() *Netlist {
	out := &Netlist{
		Name:   nl.Name,
		Cells:  append([]Cell(nil), nl.Cells...),
		Nets:   make([]Net, len(nl.Nets)),
		Region: nl.Region,
	}
	out.Region.Rows = append([]geom.Row(nil), nl.Region.Rows...)
	for i := range nl.Nets {
		out.Nets[i] = nl.Nets[i]
		out.Nets[i].Pins = append([]Pin(nil), nl.Nets[i].Pins...)
	}
	return out
}

// Placement is a snapshot of all cell positions, indexed like Cells.
type Placement []geom.Point

// Snapshot captures the current cell positions.
func (nl *Netlist) Snapshot() Placement {
	return nl.SnapshotInto(nil)
}

// SnapshotInto fills p with the current cell positions, reallocating only
// when the length differs, and returns the (possibly new) slice. Hot-path
// callers pass the previous snapshot back in so steady-state iterations
// allocate nothing.
func (nl *Netlist) SnapshotInto(p Placement) Placement {
	if len(p) != len(nl.Cells) {
		p = make(Placement, len(nl.Cells))
	}
	for i := range nl.Cells {
		p[i] = nl.Cells[i].Pos
	}
	return p
}

// Restore sets all cell positions from a snapshot taken on a netlist with
// the same cell count.
func (nl *Netlist) Restore(p Placement) {
	if len(p) != len(nl.Cells) {
		panic(fmt.Sprintf("netlist: Restore with %d positions for %d cells", len(p), len(nl.Cells)))
	}
	for i := range nl.Cells {
		nl.Cells[i].Pos = p[i]
	}
}

// MaxDisplacement returns the largest cell movement between two snapshots.
func MaxDisplacement(a, b Placement) float64 {
	var m float64
	for i := range a {
		if d := a[i].Dist(b[i]); d > m {
			m = d
		}
	}
	return m
}

// TotalDisplacement returns the summed cell movement between two snapshots.
func TotalDisplacement(a, b Placement) float64 {
	var s float64
	for i := range a {
		s += a[i].Dist(b[i])
	}
	return s
}
