// Package visual renders placements and scalar maps as ASCII art for the
// example programs and CLI tools.
package visual

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/netlist"
)

// Plot renders the placement as a width×height character grid: digits give
// the cell count per character cell (capped at 9), '#' marks macro blocks,
// '*' fixed cells, '.' empty space.
func Plot(w io.Writer, nl *netlist.Netlist, width, height int) {
	if width < 8 {
		width = 8
	}
	if height < 4 {
		height = 4
	}
	out := nl.Region.Outline
	counts := make([]int, width*height)
	blocks := make([]bool, width*height)
	pads := make([]bool, width*height)

	at := func(x, y float64) (int, int, bool) {
		ix := int((x - out.Lo.X) / out.W() * float64(width))
		iy := int((y - out.Lo.Y) / out.H() * float64(height))
		if ix < 0 || ix >= width || iy < 0 || iy >= height {
			return 0, 0, false
		}
		return ix, iy, true
	}
	for i := range nl.Cells {
		c := &nl.Cells[i]
		ix, iy, ok := at(c.Pos.X, c.Pos.Y)
		if !ok {
			continue
		}
		switch {
		case c.Fixed:
			pads[iy*width+ix] = true
		case nl.IsBlock(i):
			// Mark the whole block footprint.
			r := c.Rect()
			x0, y0, ok0 := at(r.Lo.X, r.Lo.Y)
			x1, y1, ok1 := at(r.Hi.X-1e-9, r.Hi.Y-1e-9)
			if ok0 && ok1 {
				for yy := y0; yy <= y1; yy++ {
					for xx := x0; xx <= x1; xx++ {
						blocks[yy*width+xx] = true
					}
				}
			}
		default:
			counts[iy*width+ix]++
		}
	}
	var b strings.Builder
	b.WriteString("+" + strings.Repeat("-", width) + "+\n")
	for iy := height - 1; iy >= 0; iy-- {
		b.WriteString("|")
		for ix := 0; ix < width; ix++ {
			i := iy*width + ix
			switch {
			case blocks[i]:
				b.WriteByte('#')
			case pads[i]:
				b.WriteByte('*')
			case counts[i] == 0:
				b.WriteByte('.')
			case counts[i] > 9:
				b.WriteByte('9')
			default:
				b.WriteByte(byte('0' + counts[i]))
			}
		}
		b.WriteString("|\n")
	}
	b.WriteString("+" + strings.Repeat("-", width) + "+\n")
	fmt.Fprint(w, b.String())
}

// Heat renders a scalar field (row-major nx×ny, origin bottom-left) with a
// density ramp.
func Heat(w io.Writer, data []float64, nx, ny int) {
	ramp := []byte(" .:-=+*#%@")
	var max float64
	for _, v := range data {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	b.WriteString("+" + strings.Repeat("-", nx) + "+\n")
	for iy := ny - 1; iy >= 0; iy-- {
		b.WriteString("|")
		for ix := 0; ix < nx; ix++ {
			v := data[iy*nx+ix]
			k := 0
			if max > 0 {
				k = int(v / max * float64(len(ramp)-1))
			}
			if k < 0 {
				k = 0
			}
			if k >= len(ramp) {
				k = len(ramp) - 1
			}
			b.WriteByte(ramp[k])
		}
		b.WriteString("|\n")
	}
	b.WriteString("+" + strings.Repeat("-", nx) + "+\n")
	fmt.Fprint(w, b.String())
}
