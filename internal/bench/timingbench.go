package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/anneal"
	"repro/internal/netgen"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/speedtd"
	"repro/internal/timing"
)

// TimingRun is one timing-driven method's result on one circuit.
type TimingRun struct {
	Without float64 // longest path without timing optimization (ns)
	With    float64 // with timing optimization (ns)
	CPU     float64 // seconds (timing-driven run)
}

// Table3Row is one circuit's row of Table 3.
type Table3Row struct {
	Circuit string

	TW    TimingRun // TimberWolf timing-driven [20] stand-in
	Speed TimingRun // SPEED [21] stand-in
	Ours  TimingRun

	LowerBound float64 // zero-wire-length bound (ns), shared
}

const nsPerSecond = 1e9

// RunTable3 executes the three timing-driven methods over the suite's
// timing circuits (fract, struct, biomed, avq.small, avq.large).
func RunTable3(opts Options) []Table3Row {
	opts.setDefaults()
	var rows []Table3Row
	for _, c := range netgen.MCNCSuite {
		if !c.TimingBench || !opts.wants(c.Name) {
			continue
		}
		base := netgen.GenerateSuite(c, opts.Scale, opts.Seed)
		// Electrical calibration per circuit: fixed physical chip span so
		// wire delay matters at every scale.
		params := timing.Calibrated(base)
		row := Table3Row{Circuit: c.Name}
		row.LowerBound = timing.LowerBound(base, params) * nsPerSecond

		row.TW = runTWTiming(&opts, base, params)
		opts.logf("%-10s tw-timing  %.3g -> %.3g ns (%.2fs)\n", c.Name, row.TW.Without, row.TW.With, row.TW.CPU)
		row.Speed = runSpeed(&opts, base, params)
		opts.logf("%-10s speed      %.3g -> %.3g ns (%.2fs)\n", c.Name, row.Speed.Without, row.Speed.With, row.Speed.CPU)
		row.Ours = runOursTiming(&opts, base, params)
		opts.logf("%-10s ours       %.3g -> %.3g ns (%.2fs)\n", c.Name, row.Ours.Without, row.Ours.With, row.Ours.CPU)

		rows = append(rows, row)
	}
	return rows
}

// runTWTiming stands in for timing-driven TimberWolf [20]: annealing on the
// weighted wire length with criticality updates between stages.
func runTWTiming(o *Options, base *netlist.Netlist, params timing.Params) TimingRun {
	// Without: plain annealing.
	plain := base.Clone()
	if _, err := anneal.Place(plain, anneal.Config{Seed: o.Seed}); err != nil || o.finish(plain, legalOnly) != nil {
		return TimingRun{}
	}
	without := timing.NewAnalyzer(plain, params).Analyze().MaxDelay

	// With: weighted annealing, criticality refresh per stage.
	nl := base.Clone()
	start := time.Now()
	analyzer := timing.NewAnalyzer(nl, params)
	weighter := timing.NewWeighter(nl)
	cfg := anneal.Config{Seed: o.Seed, Weighted: true,
		BeforeStage: func(stage int, nl *netlist.Netlist) {
			weighter.Update(nl, analyzer.Analyze())
		}}
	if _, err := anneal.Place(nl, cfg); err != nil || o.finish(nl, legalOnly) != nil {
		return TimingRun{}
	}
	with := timing.NewAnalyzer(nl, params).Analyze().MaxDelay
	return TimingRun{
		Without: without * nsPerSecond,
		With:    with * nsPerSecond,
		CPU:     time.Since(start).Seconds(),
	}
}

// runSpeed stands in for SPEED [21]: static slack-derived weights and one
// weighted re-placement.
func runSpeed(o *Options, base *netlist.Netlist, params timing.Params) TimingRun {
	nl := base.Clone()
	start := time.Now()
	res, err := speedtd.Place(nl, speedtd.Config{Params: params})
	if err != nil || o.finish(nl, domino) != nil {
		return TimingRun{}
	}
	with := timing.NewAnalyzer(nl, params).Analyze().MaxDelay
	return TimingRun{
		Without: res.Before * nsPerSecond,
		With:    with * nsPerSecond,
		CPU:     time.Since(start).Seconds(),
	}
}

// runOursTiming is the paper's method: iterative criticality weighting
// inside the force-directed loop (§5).
func runOursTiming(o *Options, base *netlist.Netlist, params timing.Params) TimingRun {
	// Without: plain Kraftwerk.
	plain := base.Clone()
	if _, err := place.Global(plain, o.placeCfg(place.Config{}, plain)); err != nil || o.finish(plain, domino) != nil {
		return TimingRun{}
	}
	without := timing.NewAnalyzer(plain, params).Analyze().MaxDelay

	nl := base.Clone()
	start := time.Now()
	if _, err := timing.PlaceDriven(nl, o.placeCfg(place.Config{}, nl), params, without); err != nil || o.finish(nl, domino) != nil {
		return TimingRun{}
	}
	with := timing.NewAnalyzer(nl, params).Analyze().MaxDelay
	return TimingRun{
		Without: without * nsPerSecond,
		With:    with * nsPerSecond,
		CPU:     time.Since(start).Seconds(),
	}
}

// PrintTable3 renders Table 3.
func PrintTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintln(w, "Table 3: Timing Results: Longest Path and CPU Time")
	fmt.Fprintf(w, "%-10s | %9s %9s %7s | %9s %9s %7s | %9s %9s %7s\n",
		"circuit",
		"TW w/o", "TW with", "cpu[s]",
		"SP w/o", "SP with", "cpu[s]",
		"our w/o", "our with", "cpu[s]")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s | %9.2f %9.2f %7.2f | %9.2f %9.2f %7.2f | %9.2f %9.2f %7.2f\n",
			r.Circuit,
			r.TW.Without, r.TW.With, r.TW.CPU,
			r.Speed.Without, r.Speed.With, r.Speed.CPU,
			r.Ours.Without, r.Ours.With, r.Ours.CPU)
	}
}

// Table4Row derives the paper's exploitation measure: how much of the
// optimization potential (without − lower bound) each method used.
type Table4Row struct {
	Circuit    string
	LowerBound float64 // ns

	ExpTW, ExpSpeed, ExpOurs float64 // percent
	RelTW, RelSpeed          float64 // their CPU / ours (paper: >1 = slower)
}

// Table4From derives Table 4 from Table 3 results.
func Table4From(rows []Table3Row) []Table4Row {
	out := make([]Table4Row, 0, len(rows))
	for _, r := range rows {
		exp := func(t TimingRun) float64 {
			pot := t.Without - r.LowerBound
			if pot <= 0 {
				return 0
			}
			return 100 * (t.Without - t.With) / pot
		}
		rel := func(t TimingRun) float64 {
			if r.Ours.CPU <= 0 {
				return 0
			}
			return t.CPU / r.Ours.CPU
		}
		out = append(out, Table4Row{
			Circuit:    r.Circuit,
			LowerBound: r.LowerBound,
			ExpTW:      exp(r.TW), RelTW: rel(r.TW),
			ExpSpeed: exp(r.Speed), RelSpeed: rel(r.Speed),
			ExpOurs: exp(r.Ours),
		})
	}
	return out
}

// Table4Average computes the average row.
func Table4Average(rows []Table4Row) Table4Row {
	var avg Table4Row
	if len(rows) == 0 {
		return avg
	}
	for _, r := range rows {
		avg.ExpTW += r.ExpTW
		avg.ExpSpeed += r.ExpSpeed
		avg.ExpOurs += r.ExpOurs
		avg.RelTW += r.RelTW
		avg.RelSpeed += r.RelSpeed
	}
	n := float64(len(rows))
	avg.Circuit = "average"
	avg.ExpTW /= n
	avg.ExpSpeed /= n
	avg.ExpOurs /= n
	avg.RelTW /= n
	avg.RelSpeed /= n
	return avg
}

// PrintTable4 renders Table 4 with the average row.
func PrintTable4(w io.Writer, rows []Table4Row) {
	fmt.Fprintln(w, "Table 4: Relative Timing Results: Exploitation of Optimization Potential and relative CPU requirements")
	fmt.Fprintf(w, "%-10s %11s | %8s %8s | %8s %8s | %8s\n",
		"circuit", "lower[ns]", "TW expl", "rel CPU", "SP expl", "rel CPU", "our expl")
	all := append(append([]Table4Row(nil), rows...), Table4Average(rows))
	for _, r := range all {
		fmt.Fprintf(w, "%-10s %11.2f | %7.1f%% %8.2f | %7.1f%% %8.2f | %7.1f%%\n",
			r.Circuit, r.LowerBound, r.ExpTW, r.RelTW, r.ExpSpeed, r.RelSpeed, r.ExpOurs)
	}
}
