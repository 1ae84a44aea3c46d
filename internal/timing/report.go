package timing

import (
	"fmt"
	"io"
	"math"

	"repro/internal/netlist"
)

// PathElement is one hop of a reported timing path.
type PathElement struct {
	Cell      int
	Name      string
	CellDelay float64 // intrinsic delay of the cell (s)
	NetDelay  float64 // wire delay into the *next* element (s; 0 for the last)
	Arrival   float64 // cumulative arrival at the cell's output (s)
}

// CriticalPathDetail expands the report's critical path into named hops
// with per-stage delays, the information a designer reads off a timing
// report.
func CriticalPathDetail(nl *netlist.Netlist, params Params, rep Report) []PathElement {
	params.setDefaults()
	path := rep.CriticalPath
	if len(path) == 0 {
		return nil
	}
	// Index nets by (driver, sink) over the path hops.
	netBetween := func(a, b int) int {
		for ni := range nl.Nets {
			net := &nl.Nets[ni]
			if net.Degree() > params.MaxDegree {
				continue
			}
			di := net.Driver()
			if di < 0 || net.Pins[di].Cell != a {
				continue
			}
			for _, p := range net.Pins {
				if p.Cell == b {
					return ni
				}
			}
		}
		return -1
	}
	out := make([]PathElement, 0, len(path))
	arrival := 0.0
	for i, ci := range path {
		el := PathElement{
			Cell:      ci,
			Name:      nl.Cells[ci].Name,
			CellDelay: nl.Cells[ci].Delay,
		}
		arrival += el.CellDelay
		if i+1 < len(path) {
			if ni := netBetween(ci, path[i+1]); ni >= 0 {
				el.NetDelay = NetDelay(nl, ni, params, false)
				arrival += el.NetDelay
			}
		}
		el.Arrival = arrival
		out = append(out, el)
	}
	return out
}

// SlackHistogram buckets net slacks into n bins between the worst finite
// slack and the requirement margin; excluded (infinite-slack) nets are
// not counted. Returns bin edges (n+1) and counts (n).
func SlackHistogram(rep Report, n int) (edges []float64, counts []int) {
	if n < 1 {
		n = 10
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range rep.NetSlack {
		if math.IsInf(s, 1) {
			continue
		}
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	if math.IsInf(lo, 1) {
		return nil, nil
	}
	if hi <= lo {
		hi = lo + 1e-12
	}
	edges = make([]float64, n+1)
	for i := range edges {
		edges[i] = lo + float64(i)*(hi-lo)/float64(n)
	}
	counts = make([]int, n)
	for _, s := range rep.NetSlack {
		if math.IsInf(s, 1) {
			continue
		}
		k := int(float64(n) * (s - lo) / (hi - lo))
		if k >= n {
			k = n - 1
		}
		counts[k]++
	}
	return edges, counts
}

// WriteReport renders a human-readable timing report: summary, the
// critical path hop by hop, and the slack histogram.
func WriteReport(w io.Writer, nl *netlist.Netlist, params Params, rep Report) {
	params.setDefaults()
	fmt.Fprintf(w, "Timing report — longest path %.3f ns (%d nets excluded by degree filter)\n",
		rep.MaxDelay*1e9, rep.Excluded)

	fmt.Fprintln(w, "\nCritical path:")
	fmt.Fprintf(w, "  %-16s %10s %10s %10s\n", "cell", "gate[ns]", "net[ns]", "arrive[ns]")
	for _, el := range CriticalPathDetail(nl, params, rep) {
		name := el.Name
		if name == "" {
			name = fmt.Sprintf("cell%d", el.Cell)
		}
		fmt.Fprintf(w, "  %-16s %10.3f %10.3f %10.3f\n",
			name, el.CellDelay*1e9, el.NetDelay*1e9, el.Arrival*1e9)
	}

	edges, counts := SlackHistogram(rep, 8)
	if len(counts) > 0 {
		fmt.Fprintln(w, "\nNet slack histogram:")
		for i, c := range counts {
			fmt.Fprintf(w, "  [%8.3f, %8.3f) ns: %d\n", edges[i]*1e9, edges[i+1]*1e9, c)
		}
	}
}
