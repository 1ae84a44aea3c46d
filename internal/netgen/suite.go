package netgen

import (
	"math"

	"repro/internal/netlist"
)

// Circuit identifies one benchmark of the paper's Table 1 suite.
type Circuit struct {
	Name  string
	Cells int
	Nets  int
	Rows  int
	Pads  int
	// TimingBench marks the circuits used in Tables 3 and 4.
	TimingBench bool
}

// MCNCSuite lists the nine circuits of the paper's Table 1 with the
// published cell/net/row counts of the MCNC LayoutSynth92 suite. The
// harness generates synthetic circuits with these parameters (DESIGN.md §3
// documents the substitution).
var MCNCSuite = []Circuit{
	{Name: "fract", Cells: 125, Nets: 147, Rows: 6, Pads: 24, TimingBench: true},
	{Name: "primary1", Cells: 752, Nets: 902, Rows: 16, Pads: 81},
	{Name: "struct", Cells: 1888, Nets: 1920, Rows: 21, Pads: 64, TimingBench: true},
	{Name: "primary2", Cells: 2907, Nets: 3029, Rows: 28, Pads: 107},
	{Name: "biomed", Cells: 6417, Nets: 5742, Rows: 46, Pads: 97, TimingBench: true},
	{Name: "industry2", Cells: 12142, Nets: 13419, Rows: 72, Pads: 495},
	{Name: "industry3", Cells: 15057, Nets: 21808, Rows: 54, Pads: 374},
	{Name: "avq.small", Cells: 21854, Nets: 22124, Rows: 80, Pads: 64, TimingBench: true},
	{Name: "avq.large", Cells: 25114, Nets: 25384, Rows: 86, Pads: 64, TimingBench: true},
}

// SuiteCircuit returns the suite entry with the given name, or nil.
func SuiteCircuit(name string) *Circuit {
	for i := range MCNCSuite {
		if MCNCSuite[i].Name == name {
			return &MCNCSuite[i]
		}
	}
	return nil
}

// GenerateSuite generates one circuit of the suite at the given scale
// factor (scale 1.0 reproduces the published counts; smaller scales shrink
// cells/nets/rows proportionally for quick runs, never below viable
// minimums).
func GenerateSuite(c Circuit, scale float64, seed int64) *netlist.Netlist {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	cells := max(int(float64(c.Cells)*scale), 20)
	nets := max(int(float64(c.Nets)*scale), 20)
	rows := max(int(float64(c.Rows)*sqrtScale(scale)), 2)
	pads := max(int(float64(c.Pads)*sqrtScale(scale)), 4)
	return Generate(Config{
		Name:  c.Name,
		Cells: cells,
		Nets:  nets,
		Rows:  rows,
		Pads:  pads,
		Seed:  seed,
	})
}

// sqrtScale maps an area scale to a linear-dimension scale: rows and pads
// scale with the side length, not the area.
func sqrtScale(s float64) float64 {
	if s >= 1 {
		return 1
	}
	return math.Sqrt(s)
}
