package netlist

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/geom"
)

// The text interchange format is a small line-oriented language, loosely in
// the spirit of the bookshelf format but self-contained:
//
//	circuit <name>
//	region <width> <height> <rows> <rowheight>
//	cell <name> <w> <h> [fixed <x> <y>] [delay <s>] [power <p>] [seq]
//	net <name> [weight <w>] <pin> <pin> ...
//	place <cellname> <x> <y>
//
// where <pin> is  cellname[:dir[:offx,offy[:cap]]]  with dir in {in,out,io}.
// Lines starting with '#' and blank lines are ignored.

// Write serializes the netlist to w in the text interchange format.
func Write(w io.Writer, nl *Netlist) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "circuit %s\n", nameOr(nl.Name, "unnamed"))
	rh := 0.0
	if len(nl.Region.Rows) > 0 {
		rh = nl.Region.Rows[0].Height
	}
	fmt.Fprintf(bw, "region %g %g %d %g\n", nl.Region.W(), nl.Region.H(), len(nl.Region.Rows), rh)
	for i := range nl.Cells {
		c := &nl.Cells[i]
		fmt.Fprintf(bw, "cell %s %g %g", nameOr(c.Name, fmt.Sprintf("c%d", i)), c.W, c.H)
		if c.Fixed {
			fmt.Fprintf(bw, " fixed %g %g", c.Pos.X, c.Pos.Y)
		}
		if c.Delay != 0 {
			fmt.Fprintf(bw, " delay %g", c.Delay)
		}
		if c.Power != 0 {
			fmt.Fprintf(bw, " power %g", c.Power)
		}
		if c.Seq {
			fmt.Fprintf(bw, " seq")
		}
		fmt.Fprintln(bw)
	}
	for ni := range nl.Nets {
		n := &nl.Nets[ni]
		fmt.Fprintf(bw, "net %s", nameOr(n.Name, fmt.Sprintf("n%d", ni)))
		//lint:ignore floatcmp 1 is the exact stored default weight, not a computed value; only explicit weights are written back
		if n.Weight != 1 {
			fmt.Fprintf(bw, " weight %g", n.Weight)
		}
		for _, p := range n.Pins {
			cn := nameOr(nl.Cells[p.Cell].Name, fmt.Sprintf("c%d", p.Cell))
			fmt.Fprintf(bw, " %s:%s", cn, p.Dir)
			if p.Offset != (geom.Point{}) || p.Cap != 0 {
				fmt.Fprintf(bw, ":%g,%g", p.Offset.X, p.Offset.Y)
				if p.Cap != 0 {
					fmt.Fprintf(bw, ":%g", p.Cap)
				}
			}
		}
		fmt.Fprintln(bw)
	}
	for i := range nl.Cells {
		c := &nl.Cells[i]
		if !c.Fixed && c.Pos != (geom.Point{}) {
			fmt.Fprintf(bw, "place %s %g %g\n", nameOr(c.Name, fmt.Sprintf("c%d", i)), c.Pos.X, c.Pos.Y)
		}
	}
	return bw.Flush()
}

func nameOr(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// Read parses a netlist in the text interchange format.
func Read(r io.Reader) (*Netlist, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	nl := &Netlist{}
	cells := map[string]int{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		switch f[0] {
		case "circuit":
			if len(f) < 2 {
				return nil, fmt.Errorf("line %d: circuit needs a name", lineNo)
			}
			nl.Name = f[1]
		case "region":
			if len(f) != 5 {
				return nil, fmt.Errorf("line %d: region needs width height rows rowheight", lineNo)
			}
			w, err1 := strconv.ParseFloat(f[1], 64)
			h, err2 := strconv.ParseFloat(f[2], 64)
			nr, err3 := strconv.Atoi(f[3])
			rh, err4 := strconv.ParseFloat(f[4], 64)
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
				return nil, fmt.Errorf("line %d: bad region numbers", lineNo)
			}
			const maxRows = 1 << 20
			if !isFiniteF(w) || !isFiniteF(h) || !isFiniteF(rh) ||
				w <= 0 || h <= 0 || rh < 0 || nr < 0 || nr > maxRows {
				return nil, fmt.Errorf("line %d: region out of range", lineNo)
			}
			if nr > 0 {
				if rh <= 0 {
					return nil, fmt.Errorf("line %d: rows need a positive row height", lineNo)
				}
				nl.Region = geom.NewRegion(nr, rh, w)
				nl.Region.Outline = geom.NewRect(0, 0, w, h)
			} else {
				nl.Region = geom.Region{Outline: geom.NewRect(0, 0, w, h)}
			}
		case "cell":
			c, err := parseCell(f, lineNo)
			if err != nil {
				return nil, err
			}
			if _, dup := cells[c.Name]; dup {
				return nil, fmt.Errorf("line %d: duplicate cell %q", lineNo, c.Name)
			}
			cells[c.Name] = len(nl.Cells)
			nl.Cells = append(nl.Cells, c)
		case "net":
			n, err := parseNet(f, lineNo, cells)
			if err != nil {
				return nil, err
			}
			nl.Nets = append(nl.Nets, n)
		case "place":
			if len(f) != 4 {
				return nil, fmt.Errorf("line %d: place needs cell x y", lineNo)
			}
			ci, ok := cells[f[1]]
			if !ok {
				return nil, fmt.Errorf("line %d: place: unknown cell %q", lineNo, f[1])
			}
			x, err1 := strconv.ParseFloat(f[2], 64)
			y, err2 := strconv.ParseFloat(f[3], 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("line %d: bad place coordinates", lineNo)
			}
			nl.Cells[ci].Pos = geom.Point{X: x, Y: y}
		default:
			return nil, fmt.Errorf("line %d: unknown directive %q", lineNo, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	nl.Normalize()
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	return nl, nil
}

func parseCell(f []string, lineNo int) (Cell, error) {
	if len(f) < 4 {
		return Cell{}, fmt.Errorf("line %d: cell needs name w h", lineNo)
	}
	w, err1 := strconv.ParseFloat(f[2], 64)
	h, err2 := strconv.ParseFloat(f[3], 64)
	if err1 != nil || err2 != nil {
		return Cell{}, fmt.Errorf("line %d: bad cell dimensions", lineNo)
	}
	c := Cell{Name: f[1], W: w, H: h}
	i := 4
	for i < len(f) {
		switch f[i] {
		case "fixed":
			if i+2 >= len(f) {
				return Cell{}, fmt.Errorf("line %d: fixed needs x y", lineNo)
			}
			x, e1 := strconv.ParseFloat(f[i+1], 64)
			y, e2 := strconv.ParseFloat(f[i+2], 64)
			if e1 != nil || e2 != nil {
				return Cell{}, fmt.Errorf("line %d: bad fixed coordinates", lineNo)
			}
			c.Fixed = true
			c.Pos = geom.Point{X: x, Y: y}
			i += 3
		case "delay":
			if i+1 >= len(f) {
				return Cell{}, fmt.Errorf("line %d: delay needs a value", lineNo)
			}
			d, e := strconv.ParseFloat(f[i+1], 64)
			if e != nil {
				return Cell{}, fmt.Errorf("line %d: bad delay", lineNo)
			}
			c.Delay = d
			i += 2
		case "power":
			if i+1 >= len(f) {
				return Cell{}, fmt.Errorf("line %d: power needs a value", lineNo)
			}
			p, e := strconv.ParseFloat(f[i+1], 64)
			if e != nil {
				return Cell{}, fmt.Errorf("line %d: bad power", lineNo)
			}
			c.Power = p
			i += 2
		case "seq":
			c.Seq = true
			i++
		default:
			return Cell{}, fmt.Errorf("line %d: unknown cell attribute %q", lineNo, f[i])
		}
	}
	return c, nil
}

func parseNet(f []string, lineNo int, cells map[string]int) (Net, error) {
	if len(f) < 2 {
		return Net{}, fmt.Errorf("line %d: net needs a name", lineNo)
	}
	n := Net{Name: f[1], Weight: 1}
	i := 2
	if i+1 < len(f) && f[i] == "weight" {
		w, e := strconv.ParseFloat(f[i+1], 64)
		if e != nil {
			return Net{}, fmt.Errorf("line %d: bad net weight", lineNo)
		}
		n.Weight = w
		i += 2
	}
	for ; i < len(f); i++ {
		pin, err := parsePin(f[i], lineNo, cells)
		if err != nil {
			return Net{}, err
		}
		n.Pins = append(n.Pins, pin)
	}
	if len(n.Pins) < 2 {
		return Net{}, fmt.Errorf("line %d: net %q has fewer than 2 pins", lineNo, n.Name)
	}
	return n, nil
}

func parsePin(tok string, lineNo int, cells map[string]int) (Pin, error) {
	parts := strings.Split(tok, ":")
	ci, ok := cells[parts[0]]
	if !ok {
		return Pin{}, fmt.Errorf("line %d: pin references unknown cell %q", lineNo, parts[0])
	}
	p := Pin{Cell: ci}
	if len(parts) >= 2 {
		switch parts[1] {
		case "in":
			p.Dir = Input
		case "out":
			p.Dir = Output
		case "io", "inout", "":
			p.Dir = Inout
		default:
			return Pin{}, fmt.Errorf("line %d: unknown pin direction %q", lineNo, parts[1])
		}
	}
	if len(parts) >= 3 && parts[2] != "" {
		xy := strings.Split(parts[2], ",")
		if len(xy) != 2 {
			return Pin{}, fmt.Errorf("line %d: bad pin offset %q", lineNo, parts[2])
		}
		x, e1 := strconv.ParseFloat(xy[0], 64)
		y, e2 := strconv.ParseFloat(xy[1], 64)
		if e1 != nil || e2 != nil {
			return Pin{}, fmt.Errorf("line %d: bad pin offset numbers", lineNo)
		}
		p.Offset = geom.Point{X: x, Y: y}
	}
	if len(parts) >= 4 {
		c, e := strconv.ParseFloat(parts[3], 64)
		if e != nil {
			return Pin{}, fmt.Errorf("line %d: bad pin capacitance", lineNo)
		}
		p.Cap = c
	}
	return p, nil
}

// isFiniteF reports whether f is a finite number (parsers reject NaN/Inf
// geometry before it can propagate).
func isFiniteF(f float64) bool {
	return f == f && f < math.MaxFloat64 && f > -math.MaxFloat64
}
