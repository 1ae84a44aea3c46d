package netlist

import "fmt"

// Stats summarizes the structural properties of a netlist, in the shape of
// the paper's Table 1 parameter columns (#cells, #nets, #rows) plus extras.
type Stats struct {
	Name        string
	Cells       int // movable cells
	Pads        int // fixed cells
	Nets        int
	Pins        int
	Rows        int
	MaxDegree   int
	AvgDegree   float64
	Utilization float64
}

// ComputeStats gathers statistics over nl.
func ComputeStats(nl *Netlist) Stats {
	s := Stats{Name: nl.Name, Nets: len(nl.Nets), Rows: len(nl.Region.Rows)}
	for i := range nl.Cells {
		if nl.Cells[i].Fixed {
			s.Pads++
			continue
		}
		s.Cells++
	}
	for ni := range nl.Nets {
		d := nl.Nets[ni].Degree()
		s.Pins += d
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	if s.Nets > 0 {
		s.AvgDegree = float64(s.Pins) / float64(s.Nets)
	}
	s.Utilization = nl.Utilization()
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("%s: %d cells, %d pads, %d nets (%d pins, max deg %d, avg %.2f), %d rows, util %.2f",
		s.Name, s.Cells, s.Pads, s.Nets, s.Pins, s.MaxDegree, s.AvgDegree, s.Rows, s.Utilization)
}
