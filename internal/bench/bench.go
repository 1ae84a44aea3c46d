// Package bench regenerates the paper's evaluation (§6): Table 1 (wire
// length and CPU time for TimberWolf, Gordian/Domino, and Kraftwerk over
// the MCNC suite), Table 2 (relative comparisons), Tables 3 and 4 (timing
// results and exploitation of the optimization potential), and the two
// in-text experiments (fast-vs-standard mode, timing/area tradeoff).
//
// Absolute numbers cannot match a 1998 Alphastation run on the original
// MCNC data (DESIGN.md §3 documents every substitution); the harness
// reports the same rows and the comparisons the paper draws.
package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/anneal"
	"repro/internal/gordian"
	"repro/internal/legalize"
	"repro/internal/netgen"
	"repro/internal/netlist"
	"repro/internal/obsv"
	"repro/internal/place"
	"repro/internal/timing"
)

// Options controls a harness run.
type Options struct {
	// Scale shrinks the suite circuits (1.0 = the published sizes).
	// Defaults to 0.12, which keeps a full table run in the minutes range
	// on one core.
	Scale float64
	// Seed drives circuit generation and the stochastic engines.
	Seed int64
	// Circuits filters the suite by name (nil = all).
	Circuits []string
	// Progress, when non-nil, receives one line per engine run.
	Progress io.Writer
	// Trace, when non-nil, receives one JSONL record per Kraftwerk
	// placement transformation, labeled with the circuit and engine.
	Trace *obsv.TraceWriter
}

func (o *Options) setDefaults() {
	if o.Scale <= 0 {
		o.Scale = 0.12
	}
	if o.Seed == 0 {
		o.Seed = 1998
	}
}

func (o *Options) wants(name string) bool {
	if len(o.Circuits) == 0 {
		return true
	}
	for _, c := range o.Circuits {
		if c == name {
			return true
		}
	}
	return false
}

func (o *Options) logf(format string, args ...any) {
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, format, args...)
	}
}

// traceRec is one harness run-trace line: the per-transformation stats
// labeled with their circuit and engine.
type traceRec struct {
	Circuit string `json:"circuit"`
	Engine  string `json:"engine"`
	place.IterStats
}

// traceMetaRec is the run-metadata header line written before a run's
// iteration records; the embedded RunMeta carries "type":"meta" so
// line-oriented consumers can split the stream into self-described runs.
type traceMetaRec struct {
	Circuit string `json:"circuit"`
	Engine  string `json:"engine"`
	place.RunMeta
}

// placeCfg threads the harness's observability options into a Kraftwerk
// config for a run on nl, writing the run-metadata header when tracing.
// Result.Trace retention is always suppressed — the harness only reads
// run aggregates, and at -scale 1 the O(iterations) stats of nine
// circuits are pure ballast.
func (o *Options) placeCfg(cfg place.Config, nl *netlist.Netlist) place.Config {
	cfg.NoTrace = true
	if o.Trace != nil {
		trace := o.Trace
		_ = trace.Write(traceMetaRec{
			Circuit: nl.Name,
			Engine:  "kraftwerk",
			RunMeta: place.NewRunMeta(nl, cfg, o.Seed, time.Now()),
		})
		circuit := nl.Name
		prev := cfg.OnIteration
		cfg.OnIteration = func(s place.IterStats) {
			if prev != nil {
				prev(s)
			}
			_ = trace.Write(traceRec{Circuit: circuit, Engine: "kraftwerk", IterStats: s})
		}
	}
	return cfg
}

// metersPerUnit converts layout units to meters for the wire-length
// columns, matching the timing model's geometry.
var metersPerUnit = timing.DefaultParams().UnitMeters

// EngineRun is one engine's result on one circuit.
type EngineRun struct {
	WL  float64 // final legal HPWL in meters
	CPU float64 // seconds
}

// Table1Row is one circuit's row of Table 1.
type Table1Row struct {
	Circuit string
	Cells   int
	Nets    int
	Rows    int

	TWHigh EngineRun // TimberWolf [19] stand-in (high effort)
	TWMed  EngineRun // TimberWolf [18] stand-in (medium effort)
	Gord   EngineRun // Gordian/Domino [17] stand-in
	Ours   EngineRun // Kraftwerk + Domino-style final placement
}

// RunTable1 executes all four engines over the (scaled) suite.
func RunTable1(opts Options) []Table1Row {
	opts.setDefaults()
	var rows []Table1Row
	for _, c := range netgen.MCNCSuite {
		if !opts.wants(c.Name) {
			continue
		}
		base := netgen.GenerateSuite(c, opts.Scale, opts.Seed)
		st := netlist.ComputeStats(base)
		row := Table1Row{Circuit: c.Name, Cells: st.Cells, Nets: st.Nets, Rows: st.Rows}

		row.TWHigh = runAnneal(&opts, base, anneal.Config{Effort: anneal.High, Seed: opts.Seed})
		opts.logf("%-10s tw-high  wl %.4g m cpu %.2fs\n", c.Name, row.TWHigh.WL, row.TWHigh.CPU)
		row.TWMed = runAnneal(&opts, base, anneal.Config{Effort: anneal.Medium, Seed: opts.Seed})
		opts.logf("%-10s tw-med   wl %.4g m cpu %.2fs\n", c.Name, row.TWMed.WL, row.TWMed.CPU)
		row.Gord = runGordian(&opts, base, gordian.Config{Seed: opts.Seed})
		opts.logf("%-10s gordian  wl %.4g m cpu %.2fs\n", c.Name, row.Gord.WL, row.Gord.CPU)
		row.Ours = runKraftwerk(&opts, base, place.Config{})
		opts.logf("%-10s ours     wl %.4g m cpu %.2fs\n", c.Name, row.Ours.WL, row.Ours.CPU)

		rows = append(rows, row)
	}
	return rows
}

// The final placements: domino is the Domino-style final placement the
// paper runs after both Gordian and Kraftwerk (§6.1); legalOnly snaps to
// legal rows without its improver, as the paper's TimberWolf columns are
// standalone annealing results.
var (
	domino    = legalize.Options{}
	legalOnly = legalize.Options{DetailedPasses: -1}
)

// finish legalizes nl with lo. An error is logged and returned: the run has
// no legal wire length, so its runner reports it as failed, as it does a
// placement error.
func (o *Options) finish(nl *netlist.Netlist, lo legalize.Options) error {
	_, err := legalize.Legalize(nl, lo)
	if err != nil {
		o.logf("%s: %v\n", nl.Name, err)
	}
	return err
}

func runAnneal(o *Options, base *netlist.Netlist, cfg anneal.Config) EngineRun {
	nl := base.Clone()
	start := time.Now()
	if _, err := anneal.Place(nl, cfg); err != nil || o.finish(nl, legalOnly) != nil {
		return EngineRun{}
	}
	return EngineRun{WL: nl.HPWL() * metersPerUnit, CPU: time.Since(start).Seconds()}
}

func runGordian(o *Options, base *netlist.Netlist, cfg gordian.Config) EngineRun {
	nl := base.Clone()
	start := time.Now()
	if _, err := gordian.Place(nl, cfg); err != nil || o.finish(nl, domino) != nil {
		return EngineRun{}
	}
	return EngineRun{WL: nl.HPWL() * metersPerUnit, CPU: time.Since(start).Seconds()}
}

func runKraftwerk(o *Options, base *netlist.Netlist, cfg place.Config) EngineRun {
	nl := base.Clone()
	start := time.Now()
	if _, err := place.Global(nl, o.placeCfg(cfg, nl)); err != nil || o.finish(nl, domino) != nil {
		return EngineRun{}
	}
	return EngineRun{WL: nl.HPWL() * metersPerUnit, CPU: time.Since(start).Seconds()}
}

// PrintTable1 renders the rows in the paper's Table 1 layout.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintln(w, "Table 1: Benchmarks: Wire Length and CPU Time")
	fmt.Fprintf(w, "%-10s %7s %7s %5s | %10s %8s | %10s %8s | %10s %8s | %10s %8s\n",
		"circuit", "#cells", "#nets", "#rows",
		"TW[19] wl", "cpu[s]", "TW[18] wl", "cpu[s]", "Go/Do wl", "cpu[s]", "ours wl", "cpu[s]")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %7d %7d %5d | %10.4g %8.2f | %10.4g %8.2f | %10.4g %8.2f | %10.4g %8.2f\n",
			r.Circuit, r.Cells, r.Nets, r.Rows,
			r.TWHigh.WL, r.TWHigh.CPU,
			r.TWMed.WL, r.TWMed.CPU,
			r.Gord.WL, r.Gord.CPU,
			r.Ours.WL, r.Ours.CPU)
	}
}

// Table2Row is one circuit's comparison row (improvement % of our wire
// length over each method, and our CPU relative to theirs).
type Table2Row struct {
	Circuit                      string
	ImpTWHigh, ImpTWMed, ImpGord float64 // percent; positive = ours better
	RelTWHigh, RelTWMed, RelGord float64 // our CPU / theirs
}

// Table2From derives Table 2 from Table 1 results.
func Table2From(rows []Table1Row) []Table2Row {
	out := make([]Table2Row, 0, len(rows))
	for _, r := range rows {
		imp := func(other EngineRun) float64 {
			if other.WL <= 0 {
				return 0
			}
			return 100 * (other.WL - r.Ours.WL) / other.WL
		}
		rel := func(other EngineRun) float64 {
			if other.CPU <= 0 {
				return 0
			}
			return r.Ours.CPU / other.CPU
		}
		out = append(out, Table2Row{
			Circuit:   r.Circuit,
			ImpTWHigh: imp(r.TWHigh), RelTWHigh: rel(r.TWHigh),
			ImpTWMed: imp(r.TWMed), RelTWMed: rel(r.TWMed),
			ImpGord: imp(r.Gord), RelGord: rel(r.Gord),
		})
	}
	return out
}

// Averages of a Table 2 slice (the paper's "average" row).
func Table2Average(rows []Table2Row) Table2Row {
	var avg Table2Row
	if len(rows) == 0 {
		return avg
	}
	for _, r := range rows {
		avg.ImpTWHigh += r.ImpTWHigh
		avg.ImpTWMed += r.ImpTWMed
		avg.ImpGord += r.ImpGord
		avg.RelTWHigh += r.RelTWHigh
		avg.RelTWMed += r.RelTWMed
		avg.RelGord += r.RelGord
	}
	n := float64(len(rows))
	avg.Circuit = "average"
	avg.ImpTWHigh /= n
	avg.ImpTWMed /= n
	avg.ImpGord /= n
	avg.RelTWHigh /= n
	avg.RelTWMed /= n
	avg.RelGord /= n
	return avg
}

// PrintTable2 renders Table 2 with the average row.
func PrintTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintln(w, "Table 2: Comparisons to Other Approaches: Wire Length Improvement and Relative CPU Times")
	fmt.Fprintf(w, "%-10s | %9s %8s | %9s %8s | %9s %8s\n",
		"circuit", "%imp TW19", "rel CPU", "%imp TW18", "rel CPU", "%imp GoDo", "rel CPU")
	all := append(append([]Table2Row(nil), rows...), Table2Average(rows))
	for _, r := range all {
		fmt.Fprintf(w, "%-10s | %9.1f %8.2f | %9.1f %8.2f | %9.1f %8.2f\n",
			r.Circuit, r.ImpTWHigh, r.RelTWHigh, r.ImpTWMed, r.RelTWMed, r.ImpGord, r.RelGord)
	}
}
