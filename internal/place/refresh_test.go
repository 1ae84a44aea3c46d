package place

import (
	"math"
	"testing"

	"repro/internal/density"
	"repro/internal/geom"
	"repro/internal/netgen"
	"repro/internal/netlist"
	"repro/internal/par"
)

// densityProbe checks that the density a Step computes its field from
// equals a fresh accumulation of the same cells bit for bit. Step starts
// from the density it accumulated at the end of the previous
// transformation whenever no cell moved or changed size since; record runs
// where Step is about to read the density (last in its BeforeTransform or
// ExtraDemand hook) and computes the field a new grid yields from scratch;
// check compares it with the field Step used.
type densityProbe struct {
	p    *Placer
	want *density.Field
}

func (d *densityProbe) record(extra []float64) {
	g := density.NewGrid(d.p.grid.Region, d.p.grid.NX, d.p.grid.NY)
	g.SetExtra(extra)
	g.Accumulate(d.p.nl)
	d.want = density.ComputeField(g, density.Auto)
}

func (d *densityProbe) check(t *testing.T, step int) {
	t.Helper()
	got := d.p.field.out
	for i := range d.want.FX {
		if math.Float64bits(got.FX[i]) != math.Float64bits(d.want.FX[i]) ||
			math.Float64bits(got.FY[i]) != math.Float64bits(d.want.FY[i]) {
			t.Fatalf("step %d: field at bin %d is (%g, %g), a fresh accumulation gives (%g, %g)",
				step, i, got.FX[i], got.FY[i], d.want.FX[i], d.want.FY[i])
		}
	}
}

// firstMovable returns the index of nl's first movable cell.
func firstMovable(nl *netlist.Netlist) int {
	for ci := range nl.Cells {
		if !nl.Cells[ci].Fixed {
			return ci
		}
	}
	panic("no movable cell")
}

func refreshNetlist() *netlist.Netlist {
	return netgen.Generate(netgen.Config{Name: "refresh", Cells: 400, Nets: 520, Rows: 8, Seed: 11})
}

// TestStepDensityMatchesFreshAccumulate covers every way the cells can
// change between the accumulation that ends one transformation and the
// density the next one reads, and the steady state where none does.
func TestStepDensityMatchesFreshAccumulate(t *testing.T) {
	const steps = 6
	for _, tc := range []struct {
		name string
		// cfg adjusts the configuration; probe hooks are added after it.
		cfg func(c *Config)
		// before runs between Steps, on the caller's side.
		before func(p *Placer, step int)
		// hook runs in BeforeTransform, ahead of the probe.
		hook func(p *Placer, step int)
		// extra is the ExtraDemand map of a step, nil for no hook.
		extra func(g *density.Grid, step int) []float64
		// parallel forces the parallel deposit path.
		parallel bool
	}{
		{name: "unmoved"},
		{name: "unmoved-parallel", parallel: true},
		{name: "caller-moves-a-cell", before: func(p *Placer, step int) {
			ci := firstMovable(p.nl)
			p.nl.Cells[ci].Pos = p.nl.Cells[ci].Pos.Add(geom.Point{X: 0.7 * p.grid.BinW, Y: 0.3 * p.grid.BinH})
		}},
		{name: "caller-resizes-a-cell", before: func(p *Placer, step int) {
			p.nl.Cells[firstMovable(p.nl)].W *= 1.5
		}},
		{name: "hook-moves-a-cell", hook: func(p *Placer, step int) {
			ci := firstMovable(p.nl)
			p.nl.Cells[ci].Pos = p.nl.Region.Outline.Lo.Add(geom.Point{X: float64(step+1) * p.grid.BinW, Y: p.grid.BinH})
		}},
		{name: "extra-demand-changes", extra: func(g *density.Grid, step int) []float64 {
			m := make([]float64, g.NX*g.NY)
			m[(step*37)%len(m)] = float64(step+1) * g.BinW * g.BinH
			return m
		}},
		{name: "keep-placement-start", cfg: func(c *Config) { c.KeepPlacement = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.parallel {
				old := par.Threshold
				par.Threshold = 1
				defer func() { par.Threshold = old }()
			}
			nl := refreshNetlist()
			var cfg Config
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			if cfg.KeepPlacement {
				netgen.ScatterRandom(nl, 11)
			}
			probe := &densityProbe{}
			step := 0
			cfg.BeforeTransform = func(_ int, p *Placer) {
				if tc.hook != nil {
					tc.hook(p, step)
				}
				if tc.extra == nil {
					probe.record(nil)
				}
			}
			if tc.extra != nil {
				cfg.ExtraDemand = func(g *density.Grid) []float64 {
					m := tc.extra(g, step)
					probe.record(m)
					return m
				}
			}
			p := New(nl, cfg)
			probe.p = p
			if err := p.Initialize(); err != nil {
				t.Fatal(err)
			}
			for ; step < steps; step++ {
				if tc.before != nil && step > 0 {
					tc.before(p, step)
				}
				if _, err := p.Step(); err != nil {
					t.Fatal(err)
				}
				probe.check(t, step)
			}
		})
	}
}

// TestResumedStepDensityMatchesFreshAccumulate: a placer rebuilt from a
// checkpoint has accumulated nothing yet, so its first Step must
// accumulate the restored positions rather than reuse anything.
func TestResumedStepDensityMatchesFreshAccumulate(t *testing.T) {
	nl := refreshNetlist()
	p := New(nl, Config{})
	if err := p.Initialize(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := p.Step(); err != nil {
			t.Fatal(err)
		}
	}
	ck := p.Checkpoint()

	probe := &densityProbe{}
	cfg := Config{BeforeTransform: func(int, *Placer) { probe.record(nil) }}
	q, err := Resume(refreshNetlist(), cfg, ck)
	if err != nil {
		t.Fatal(err)
	}
	probe.p = q
	for step := 0; step < 3; step++ {
		if _, err := q.Step(); err != nil {
			t.Fatal(err)
		}
		probe.check(t, step)
	}
}
