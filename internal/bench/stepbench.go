package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/netgen"
	"repro/internal/netlist"
	"repro/internal/place"
)

// StepRun is one full placement run of the step experiment.
type StepRun struct {
	Iterations int          `json:"iterations"`
	CGIters    int          `json:"cg_iters"` // Σ(cg_iter_x + cg_iter_y) over the run
	StopReason string       `json:"stop_reason"`
	HPWL       float64      `json:"hpwl"`
	Overflow   float64      `json:"overflow"`
	WallSec    float64      `json:"wall_seconds"`
	Phases     place.Phases `json:"phases"`
}

// StepRow holds one circuit size's run.
type StepRow struct {
	Cells int     `json:"cells"`
	Nets  int     `json:"nets"`
	Hot   StepRun `json:"hot"`
}

// StepBench is the BENCH_step.json document: the per-phase cost of
// place.Step across design sizes.
type StepBench struct {
	GOMAXPROCS int       `json:"gomaxprocs"`
	Seed       int64     `json:"seed"`
	MaxIter    int       `json:"max_iter"`
	Rows       []StepRow `json:"rows"`
}

// RunStepBench places a synthetic circuit per size with the default engine
// and records the per-phase time breakdown of the run.
func RunStepBench(opts Options, sizes []int, maxIter int) StepBench {
	opts.setDefaults()
	if len(sizes) == 0 {
		sizes = []int{2000, 10000}
	}
	if maxIter <= 0 {
		maxIter = 60
	}
	b := StepBench{GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: opts.Seed, MaxIter: maxIter}
	for _, n := range sizes {
		nets := n + n/3
		base := netgen.Generate(netgen.Config{
			Name:  fmt.Sprintf("step-%d", n),
			Cells: n,
			Nets:  nets,
			Rows:  rowsFor(n),
			Seed:  opts.Seed,
		})
		row := StepRow{Cells: n, Nets: nets}
		row.Hot = runStep(&opts, base, maxIter)
		opts.logf("step %6d cells hot:  %6.2fs  %3d iters (%s)\n",
			n, row.Hot.WallSec, row.Hot.Iterations, row.Hot.StopReason)
		b.Rows = append(b.Rows, row)
	}
	return b
}

func runStep(o *Options, base *netlist.Netlist, maxIter int) StepRun {
	nl := base.Clone()
	cgIters := 0
	cfg := o.placeCfg(place.Config{MaxIter: maxIter}, nl)
	prev := cfg.OnIteration
	cfg.OnIteration = func(s place.IterStats) {
		cgIters += s.CGIterX + s.CGIterY
		if prev != nil {
			prev(s)
		}
	}
	start := time.Now()
	res, err := place.Global(nl, cfg)
	if err != nil {
		return StepRun{StopReason: "error: " + err.Error()}
	}
	return StepRun{
		Iterations: res.Iterations,
		CGIters:    cgIters,
		StopReason: string(res.StopReason),
		HPWL:       res.HPWL,
		Overflow:   res.Overflow,
		WallSec:    time.Since(start).Seconds(),
		Phases:     res.Phases,
	}
}

// WriteStepBench writes the BENCH_step.json document.
func WriteStepBench(w io.Writer, b StepBench) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// PrintStepBench renders each run's wall time and per-phase breakdown.
func PrintStepBench(w io.Writer, b StepBench) {
	fmt.Fprintf(w, "E10: place.Step phase breakdown (gomaxprocs %d, max %d iters, seed %d)\n",
		b.GOMAXPROCS, b.MaxIter, b.Seed)
	fmt.Fprintf(w, "%8s %-12s | %8s %6s %7s | %9s %9s %9s %9s | %9s\n",
		"#cells", "mode", "wall[s]", "iters", "cg-it", "gather", "field", "build", "solve", "step")
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	for _, r := range b.Rows {
		run, p := r.Hot, r.Hot.Phases
		fmt.Fprintf(w, "%8d %-12s | %8.2f %6d %7d | %8.1fm %8.1fm %8.1fm %8.1fm | %8.1fm\n",
			r.Cells, "hot", run.WallSec, run.Iterations, run.CGIters,
			ms(p.TGather), ms(p.TField), ms(p.TBuild), ms(p.TSolvePair), ms(p.TStep))
	}
}

// ReadStepBench parses a BENCH_step.json document.
func ReadStepBench(r io.Reader) (StepBench, error) {
	var b StepBench
	if err := json.NewDecoder(r).Decode(&b); err != nil {
		return StepBench{}, fmt.Errorf("step bench document: %w", err)
	}
	return b, nil
}

// CheckStepRegression gates CI on the hot engine's step time: it compares
// the current hot run at the given cell count against the checked-in
// baseline document, normalized per iteration so differing -step-iter
// settings still compare, and errors when the current time exceeds the
// baseline by more than tol (0.20 = +20%).
func CheckStepRegression(cur, base StepBench, cells int, tol float64) error {
	find := func(b StepBench, what string) (StepRun, error) {
		for _, r := range b.Rows {
			if r.Cells == cells {
				return r.Hot, nil
			}
		}
		return StepRun{}, fmt.Errorf("%s document has no %d-cell row", what, cells)
	}
	c, err := find(cur, "current")
	if err != nil {
		return err
	}
	b, err := find(base, "baseline")
	if err != nil {
		return err
	}
	if c.Iterations <= 0 || b.Iterations <= 0 || c.Phases.TStep <= 0 || b.Phases.TStep <= 0 {
		return fmt.Errorf("step regression check needs positive iterations and t_step_ns (current %d/%d, baseline %d/%d)",
			c.Iterations, c.Phases.TStep, b.Iterations, b.Phases.TStep)
	}
	curNS := float64(c.Phases.TStep) / float64(c.Iterations)
	baseNS := float64(b.Phases.TStep) / float64(b.Iterations)
	if curNS > baseNS*(1+tol) {
		return fmt.Errorf("hot step time at %d cells regressed: %.1fms/iter vs baseline %.1fms/iter (+%.0f%% > +%.0f%% budget)",
			cells, curNS/1e6, baseNS/1e6, 100*(curNS/baseNS-1), 100*tol)
	}
	return nil
}
