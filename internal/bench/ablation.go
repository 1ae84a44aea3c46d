package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/legalize"
	"repro/internal/netgen"
	"repro/internal/netlist"
	"repro/internal/place"
)

// AblationRow is one design-choice variant's result.
type AblationRow struct {
	Variant    string
	WL         float64 // final legal HPWL (m)
	GlobalWL   float64 // HPWL before legalization (m)
	Iterations int
	CPU        float64
	Converged  bool
}

// RunAblation evaluates the design choices DESIGN.md calls out, one
// variant at a time against the default configuration on one circuit:
// net-weight linearization and the density-grid resolution.
func RunAblation(opts Options, circuit string) ([]AblationRow, error) {
	opts.setDefaults()
	c := netgen.SuiteCircuit(circuit)
	if c == nil {
		return nil, fmt.Errorf("bench: unknown circuit %q", circuit)
	}
	base := netgen.GenerateSuite(*c, opts.Scale, opts.Seed)

	variants := []struct {
		name string
		cfg  place.Config
	}{
		{"default (linearized, auto grid)", place.Config{}},
		{"no linearization (pure quadratic)", place.Config{NoLinearize: true}},
		{"coarse grid (half resolution)", place.Config{GridBins: halfAutoBins(base)}},
		{"fine grid (double resolution)", place.Config{GridBins: 2 * autoBins(base)}},
	}

	var rows []AblationRow
	for _, v := range variants {
		nl := base.Clone()
		start := time.Now()
		res, err := place.Global(nl, opts.placeCfg(v.cfg, nl))
		if err != nil {
			return rows, fmt.Errorf("bench: ablation %q: %w", v.name, err)
		}
		globalWL := nl.HPWL() * metersPerUnit
		if _, err := legalize.Legalize(nl, legalize.Options{}); err != nil {
			return rows, fmt.Errorf("bench: ablation %q legalize: %w", v.name, err)
		}
		rows = append(rows, AblationRow{
			Variant:    v.name,
			WL:         nl.HPWL() * metersPerUnit,
			GlobalWL:   globalWL,
			Iterations: res.Iterations,
			CPU:        time.Since(start).Seconds(),
			Converged:  res.Converged,
		})
		opts.logf("ablation %-45s wl %.4g m (%d iters, %.2fs)\n",
			v.name, rows[len(rows)-1].WL, res.Iterations, rows[len(rows)-1].CPU)
	}
	return rows, nil
}

func autoBins(nl *netlist.Netlist) int {
	n := nl.NumMovable()
	b := 1
	for b*b < n {
		b *= 2
	}
	if b < 8 {
		b = 8
	}
	if b > 256 {
		b = 256
	}
	return b
}

func halfAutoBins(nl *netlist.Netlist) int {
	b := autoBins(nl) / 2
	if b < 4 {
		b = 4
	}
	return b
}

// PrintAblation renders the ablation comparison with deltas against the
// first (default) row.
func PrintAblation(w io.Writer, circuit string, rows []AblationRow) {
	fmt.Fprintf(w, "Ablation on %s: design-choice variants vs default\n", circuit)
	fmt.Fprintf(w, "%-46s | %10s %8s | %5s %7s %5s\n",
		"variant", "wl[m]", "Δwl[%]", "iters", "cpu[s]", "conv")
	if len(rows) == 0 {
		return
	}
	ref := rows[0].WL
	for _, r := range rows {
		delta := 0.0
		if ref > 0 {
			delta = 100 * (r.WL - ref) / ref
		}
		conv := "yes"
		if !r.Converged {
			conv = "no"
		}
		fmt.Fprintf(w, "%-46s | %10.4g %8.1f | %5d %7.2f %5s\n",
			r.Variant, r.WL, delta, r.Iterations, r.CPU, conv)
	}
}
