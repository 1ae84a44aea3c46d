package netlist

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/geom"
)

// Bookshelf support: the GSRC/ISPD interchange format used by academic
// placers (.aux, .nodes, .nets, .pl, .scl). The dialect implemented here is
// the common row-based subset: fixed terminals, pin offsets relative to
// node centers, core rows with uniform height. Orientation tokens are
// parsed and ignored (cells are symmetric in this model).

// ReadBookshelf assembles a netlist from the four mandatory Bookshelf
// streams. scl may be nil; the region is then derived from the placement
// bounding box with one row.
func ReadBookshelf(name string, nodes, nets, pl, scl io.Reader) (*Netlist, error) {
	nl := &Netlist{Name: name}
	index := map[string]int{}

	if err := readNodes(nl, index, nodes); err != nil {
		return nil, fmt.Errorf("bookshelf nodes: %w", err)
	}
	if err := readNets(nl, index, nets); err != nil {
		return nil, fmt.Errorf("bookshelf nets: %w", err)
	}
	if pl != nil {
		if err := readPl(nl, index, pl); err != nil {
			return nil, fmt.Errorf("bookshelf pl: %w", err)
		}
	}
	if scl != nil {
		if err := readScl(nl, scl); err != nil {
			return nil, fmt.Errorf("bookshelf scl: %w", err)
		}
	}
	if nl.Region.Outline.Empty() {
		nl.Region = regionFromPlacement(nl)
	}
	nl.Normalize()
	if err := nl.Validate(); err != nil {
		return nil, fmt.Errorf("bookshelf: %w", err)
	}
	return nl, nil
}

// LoadBookshelf reads a design from an .aux file referencing the other
// files (all in the .aux file's directory).
func LoadBookshelf(auxPath string) (*Netlist, error) {
	auxData, err := os.ReadFile(auxPath)
	if err != nil {
		return nil, err
	}
	dir := filepath.Dir(auxPath)
	var nodesF, netsF, plF, sclF string
	for _, tok := range strings.Fields(string(auxData)) {
		switch strings.ToLower(filepath.Ext(tok)) {
		case ".nodes":
			nodesF = tok
		case ".nets":
			netsF = tok
		case ".pl":
			plF = tok
		case ".scl":
			sclF = tok
		}
	}
	if nodesF == "" || netsF == "" {
		return nil, fmt.Errorf("bookshelf aux %q: missing .nodes or .nets reference", auxPath)
	}
	// A file the .aux names must open; one it does not name is optional.
	var rs [4]io.Reader
	for i, name := range [4]string{nodesF, netsF, plF, sclF} {
		if name == "" {
			continue
		}
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		defer f.Close()
		rs[i] = f
	}
	base := strings.TrimSuffix(filepath.Base(auxPath), filepath.Ext(auxPath))
	return ReadBookshelf(base, rs[0], rs[1], rs[2], rs[3])
}

// bookshelfLines iterates non-empty, non-comment lines, skipping the
// "UCLA ... 1.0" header line.
func bookshelfLines(r io.Reader, fn func(fields []string) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "UCLA") {
			continue
		}
		if err := fn(strings.Fields(line)); err != nil {
			return err
		}
	}
	return sc.Err()
}

func readNodes(nl *Netlist, index map[string]int, r io.Reader) error {
	return bookshelfLines(r, func(f []string) error {
		if strings.HasPrefix(f[0], "NumNodes") || strings.HasPrefix(f[0], "NumTerminals") {
			return nil
		}
		if len(f) < 3 {
			return fmt.Errorf("node line %v too short", f)
		}
		w, err1 := strconv.ParseFloat(f[1], 64)
		h, err2 := strconv.ParseFloat(f[2], 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad node dimensions %v", f)
		}
		c := Cell{Name: f[0], W: w, H: h}
		if len(f) >= 4 && strings.EqualFold(f[3], "terminal") {
			c.Fixed = true
		}
		if _, dup := index[c.Name]; dup {
			return fmt.Errorf("duplicate node %q", c.Name)
		}
		index[c.Name] = len(nl.Cells)
		nl.Cells = append(nl.Cells, c)
		return nil
	})
}

func readNets(nl *Netlist, index map[string]int, r io.Reader) error {
	var cur *Net
	flush := func() {
		if cur != nil && len(cur.Pins) >= 2 {
			nl.Nets = append(nl.Nets, *cur)
		}
		cur = nil
	}
	err := bookshelfLines(r, func(f []string) error {
		switch {
		case strings.HasPrefix(f[0], "NumNets"), strings.HasPrefix(f[0], "NumPins"):
			return nil
		case f[0] == "NetDegree":
			flush()
			name := fmt.Sprintf("n%d", len(nl.Nets))
			if len(f) >= 4 {
				name = f[3]
			}
			cur = &Net{Name: name, Weight: 1}
			return nil
		default:
			if cur == nil {
				return fmt.Errorf("pin line %v before NetDegree", f)
			}
			ci, ok := index[f[0]]
			if !ok {
				return fmt.Errorf("pin references unknown node %q", f[0])
			}
			pin := Pin{Cell: ci}
			rest := f[1:]
			// An optional direction marker; a pin without one is Inout,
			// and its line may go straight on to the offset.
			if len(rest) > 0 && rest[0] != ":" {
				switch rest[0] {
				case "I":
					pin.Dir = Input
				case "O":
					pin.Dir = Output
				case "B":
					pin.Dir = Inout
				}
				rest = rest[1:]
			}
			// Optional ": xoff yoff".
			if len(rest) >= 3 && rest[0] == ":" {
				x, e1 := strconv.ParseFloat(rest[1], 64)
				y, e2 := strconv.ParseFloat(rest[2], 64)
				if e1 != nil || e2 != nil {
					return fmt.Errorf("bad pin offset %v", f)
				}
				pin.Offset = geom.Point{X: x, Y: y}
			}
			cur.Pins = append(cur.Pins, pin)
			return nil
		}
	})
	flush()
	return err
}

func readPl(nl *Netlist, index map[string]int, r io.Reader) error {
	return bookshelfLines(r, func(f []string) error {
		if len(f) < 3 {
			return nil
		}
		ci, ok := index[f[0]]
		if !ok {
			return fmt.Errorf("pl references unknown node %q", f[0])
		}
		x, e1 := strconv.ParseFloat(f[1], 64)
		y, e2 := strconv.ParseFloat(f[2], 64)
		if e1 != nil || e2 != nil {
			return fmt.Errorf("bad pl coordinates %v", f)
		}
		c := &nl.Cells[ci]
		// Bookshelf coordinates are the lower-left corner; ours the center.
		c.Pos = geom.Point{X: x + c.W/2, Y: y + c.H/2}
		for _, tok := range f[3:] {
			if strings.Contains(tok, "FIXED") {
				c.Fixed = true
			}
		}
		return nil
	})
}

func readScl(nl *Netlist, r io.Reader) error {
	var rows []geom.Row
	var cur *geom.Row
	var siteWidth, numSites float64
	err := bookshelfLines(r, func(f []string) error {
		key := strings.ToLower(f[0])
		switch key {
		case "numrows":
			return nil
		case "corerow":
			cur = &geom.Row{Height: 1}
			siteWidth, numSites = 1, 0
			return nil
		case "end":
			if cur != nil {
				cur.X1 = cur.X0 + siteWidth*numSites
				rows = append(rows, *cur)
				cur = nil
			}
			return nil
		}
		if cur == nil || len(f) < 3 {
			return nil
		}
		val, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return nil // tolerate unknown attributes
		}
		switch key {
		case "coordinate":
			cur.Y = val
		case "height":
			cur.Height = val
		case "sitewidth":
			siteWidth = val
		case "numsites":
			numSites = val
		case "subroworigin":
			cur.X0 = val
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(rows) == 0 {
		return fmt.Errorf("scl defined no rows")
	}
	var bb geom.BBox
	for _, row := range rows {
		r := row.Rect()
		bb.Add(r.Lo)
		bb.Add(r.Hi)
	}
	nl.Region = geom.Region{Outline: bb.Rect(), Rows: rows}
	return nil
}

func regionFromPlacement(nl *Netlist) geom.Region {
	var bb geom.BBox
	for i := range nl.Cells {
		r := nl.Cells[i].Rect()
		bb.Add(r.Lo)
		bb.Add(r.Hi)
	}
	out := bb.Rect()
	if out.Empty() {
		out = geom.NewRect(0, 0, 1, 1)
	}
	return geom.Region{Outline: out}
}

// WriteBookshelf emits the design as the four Bookshelf streams.
func WriteBookshelf(nl *Netlist, nodes, nets, pl, scl io.Writer) error {
	// .nodes
	nw := bufio.NewWriter(nodes)
	fmt.Fprintln(nw, "UCLA nodes 1.0")
	terminals := 0
	for i := range nl.Cells {
		if nl.Cells[i].Fixed {
			terminals++
		}
	}
	fmt.Fprintf(nw, "NumNodes : %d\n", len(nl.Cells))
	fmt.Fprintf(nw, "NumTerminals : %d\n", terminals)
	for i := range nl.Cells {
		c := &nl.Cells[i]
		term := ""
		if c.Fixed {
			term = " terminal"
		}
		fmt.Fprintf(nw, "\t%s\t%g\t%g%s\n", bsName(nl, i), c.W, c.H, term)
	}
	if err := nw.Flush(); err != nil {
		return err
	}

	// .nets
	ew := bufio.NewWriter(nets)
	fmt.Fprintln(ew, "UCLA nets 1.0")
	pins := 0
	for ni := range nl.Nets {
		pins += nl.Nets[ni].Degree()
	}
	fmt.Fprintf(ew, "NumNets : %d\n", len(nl.Nets))
	fmt.Fprintf(ew, "NumPins : %d\n", pins)
	for ni := range nl.Nets {
		n := &nl.Nets[ni]
		fmt.Fprintf(ew, "NetDegree : %d %s\n", n.Degree(), nameOr(n.Name, fmt.Sprintf("n%d", ni)))
		for _, p := range n.Pins {
			var dir string
			switch p.Dir {
			case Input:
				dir = "I"
			case Output:
				dir = "O"
			default:
				// Inout (and any future direction) exports as Bookshelf's
				// bidirectional marker.
				dir = "B"
			}
			fmt.Fprintf(ew, "\t%s %s : %g %g\n", bsName(nl, p.Cell), dir, p.Offset.X, p.Offset.Y)
		}
	}
	if err := ew.Flush(); err != nil {
		return err
	}

	// .pl
	pw := bufio.NewWriter(pl)
	fmt.Fprintln(pw, "UCLA pl 1.0")
	for i := range nl.Cells {
		c := &nl.Cells[i]
		suffix := ""
		if c.Fixed {
			suffix = " /FIXED"
		}
		fmt.Fprintf(pw, "%s\t%g\t%g\t: N%s\n", bsName(nl, i), c.Pos.X-c.W/2, c.Pos.Y-c.H/2, suffix)
	}
	if err := pw.Flush(); err != nil {
		return err
	}

	// .scl
	sw := bufio.NewWriter(scl)
	fmt.Fprintln(sw, "UCLA scl 1.0")
	fmt.Fprintf(sw, "NumRows : %d\n", len(nl.Region.Rows))
	for _, row := range nl.Region.Rows {
		fmt.Fprintln(sw, "CoreRow Horizontal")
		fmt.Fprintf(sw, " Coordinate : %g\n", row.Y)
		fmt.Fprintf(sw, " Height : %g\n", row.Height)
		fmt.Fprintf(sw, " Sitewidth : 1\n")
		fmt.Fprintf(sw, " Sitespacing : 1\n")
		fmt.Fprintf(sw, " SubrowOrigin : %g\n", row.X0)
		fmt.Fprintf(sw, " NumSites : %g\n", row.Capacity())
		fmt.Fprintln(sw, "End")
	}
	return sw.Flush()
}

func bsName(nl *Netlist, ci int) string {
	return nameOr(nl.Cells[ci].Name, fmt.Sprintf("o%d", ci))
}
