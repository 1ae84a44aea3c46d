package place

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/density"
	"repro/internal/geom"
	"repro/internal/netlist"
)

// TestFixedOnlyNetlist: a design with no movable cells must terminate
// immediately and harmlessly.
func TestFixedOnlyNetlist(t *testing.T) {
	b := netlist.NewBuilder("fixed", geom.NewRegion(2, 1, 10))
	b.AddPad("a", geom.Point{X: 0, Y: 1})
	b.AddPad("c", geom.Point{X: 10, Y: 1})
	b.Connect("n", "a", "c")
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Global(nl, Config{MaxIter: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !settled(res.StopReason) && res.Iterations > 5 {
		t.Errorf("fixed-only run misbehaved: %+v", res)
	}
}

// TestSingleMovableCell: one movable cell between pads lands between them.
func TestSingleMovableCell(t *testing.T) {
	b := netlist.NewBuilder("one", geom.NewRegion(2, 1, 10))
	b.AddPad("l", geom.Point{X: 0, Y: 1})
	b.AddPad("r", geom.Point{X: 10, Y: 1})
	b.AddCell("m", 1, 1)
	b.Connect("n1", "l", "m")
	b.Connect("n2", "m", "r")
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Global(nl, Config{MaxIter: 30}); err != nil {
		t.Fatal(err)
	}
	x := nl.Cells[2].Pos.X
	if x < 2 || x > 8 {
		t.Errorf("single cell at x=%v, want between the pads", x)
	}
}

// TestDenseUtilization: utilization near 1 still terminates and keeps
// cells inside.
func TestDenseUtilization(t *testing.T) {
	b := netlist.NewBuilder("dense", geom.NewRegion(4, 1, 26))
	names := make([]string, 100)
	for i := range names {
		names[i] = string(rune('a'+i%26)) + string(rune('0'+i/26))
		b.AddCell(names[i], 1, 1) // 100 area in a 104 region: util 0.96
	}
	for i := 0; i+1 < len(names); i += 2 {
		b.Connect("n"+names[i], names[i], names[i+1])
	}
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Global(nl, Config{MaxIter: 80}); err != nil {
		t.Fatal(err)
	}
	for i := range nl.Cells {
		if !nl.Region.Outline.Contains(nl.Cells[i].Pos) {
			t.Fatalf("cell %d escaped at util 0.96", i)
		}
	}
}

// TestPullLengthMismatchPanics guards the external force interface.
func TestPullLengthMismatchPanics(t *testing.T) {
	b := netlist.NewBuilder("p", geom.NewRegion(2, 1, 10))
	b.AddCell("a", 1, 1)
	b.AddCell("c", 1, 1)
	b.Connect("n", "a", "c")
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := New(nl, Config{})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	p.Pull(make([]geom.Point, 1))
}

// TestRunToleratesUnconvergedCG injects CG non-convergence into every
// solve, the initial one included: two iterations per axis never reach
// the tolerance. The run must still end on a defined stop reason with a
// nil error and finite, in-region positions, because each unconverged
// iterate is kept and the next transformation corrects it.
func TestRunToleratesUnconvergedCG(t *testing.T) {
	nl := testCircuit(t, 300, 5)
	cfg := Config{MaxIter: 40}
	cfg.CG.MaxIter = 2
	res, err := Global(nl, cfg)
	if err != nil {
		t.Fatalf("unconverged solves ended the run: %v", err)
	}
	switch res.StopReason {
	case StopCriterion, StopStagnation, StopMaxIter:
	default:
		t.Errorf("stop reason %q", res.StopReason)
	}
	if res.Iterations == 0 || len(res.Trace) != res.Iterations {
		t.Errorf("%d iterations, %d trace records", res.Iterations, len(res.Trace))
	}
	if s := res.Trace[0]; s.CGIterX != 2 || s.CGIterY != 2 {
		t.Errorf("first transformation took %d/%d CG iterations, want the 2/2 cap", s.CGIterX, s.CGIterY)
	}
	for ci, c := range nl.Cells {
		if math.IsNaN(c.Pos.X) || math.IsNaN(c.Pos.Y) || math.IsInf(c.Pos.X, 0) || math.IsInf(c.Pos.Y, 0) {
			t.Fatalf("cell %d at non-finite %v", ci, c.Pos)
		}
		if !nl.Region.Outline.Contains(c.Pos) {
			t.Fatalf("cell %d at %v outside %v", ci, c.Pos, nl.Region.Outline)
		}
	}
}

// TestContinueBudgetAndPolicy: Continue initializes an unstarted placer,
// stops on its policy's reason or after its budget, and a later call
// continues the same placer where the first left off.
func TestContinueBudgetAndPolicy(t *testing.T) {
	nl := testCircuit(t, 200, 6)
	p := New(nl, Config{})
	calls := 0
	res, err := p.Continue(context.Background(), 10, func(s IterStats) StopReason {
		calls++
		if s.Iter == 3 {
			return StopCriterion
		}
		return ""
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason != StopCriterion || res.Iterations != 4 || calls != 4 || len(res.Trace) != 4 {
		t.Fatalf("policy stop: %s after %d iterations, %d calls, %d records", res.StopReason, res.Iterations, calls, len(res.Trace))
	}
	var sum Phases
	for _, s := range res.Trace {
		sum.Add(s.Phases)
	}
	if sum != res.Phases {
		t.Errorf("phases %+v, trace sums to %+v", res.Phases, sum)
	}
	res, err = p.Continue(context.Background(), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason != StopMaxIter || res.Iterations != 9 || len(res.Trace) != 5 || res.Trace[0].Iter != 4 {
		t.Errorf("budget stop: %s after %d iterations, %d records", res.StopReason, res.Iterations, len(res.Trace))
	}
	if res.HPWL != res.Trace[4].HPWL || res.Overflow != res.Trace[4].Overflow {
		t.Errorf("result HPWL/overflow %v/%v, last step's %v/%v", res.HPWL, res.Overflow, res.Trace[4].HPWL, res.Trace[4].Overflow)
	}
}

// TestStepRejectsNonFinite injects a NaN on the second transformation,
// once into the density (one bin of the ExtraDemand map, which poisons the
// force field) and once into the moved positions (a NaN CG starting guess,
// which the x solve hands back as its response when it breaks down). Run must end with an error wrapping
// ErrNonFinite, no trace record may carry a non-finite value, and the
// netlist must keep the placement the first transformation left.
func TestStepRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct {
		name   string
		inject func(cfg *Config)
	}{
		{"field", func(cfg *Config) {
			calls := 0
			cfg.ExtraDemand = func(g *density.Grid) []float64 {
				calls++
				extra := make([]float64, len(g.Demand))
				if calls == 2 {
					extra[len(extra)/3] = math.NaN()
				}
				return extra
			}
		}},
		{"position", func(cfg *Config) {
			cfg.BeforeTransform = func(iter int, p *Placer) {
				if iter == 1 {
					for i := range p.warmDX {
						p.warmDX[i] = math.NaN()
					}
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nl := testCircuit(t, 200, 7)
			cfg := Config{MaxIter: 20}
			tc.inject(&cfg)
			var after0 netlist.Placement
			records := 0
			cfg.OnIteration = func(IterStats) {
				records++
				after0 = nl.SnapshotInto(after0)
			}
			res, err := New(nl, cfg).Run(context.Background())
			if !errors.Is(err, ErrNonFinite) {
				t.Fatalf("Run returned %v (stop %q after %d iterations), want ErrNonFinite", err, res.StopReason, res.Iterations)
			}
			if records != 1 || len(res.Trace) != 1 {
				t.Fatalf("%d observed transformations, %d trace records, want 1 each", records, len(res.Trace))
			}
			v := reflect.ValueOf(res.Trace[0])
			for i := 0; i < v.NumField(); i++ {
				if f := v.Field(i); f.Kind() == reflect.Float64 && !finite(f.Float()) {
					t.Errorf("trace record %s = %v", v.Type().Field(i).Name, f.Float())
				}
			}
			for ci := range nl.Cells {
				if nl.Cells[ci].Pos != after0[ci] {
					t.Fatalf("cell %d at %v, the first transformation left it at %v", ci, nl.Cells[ci].Pos, after0[ci])
				}
			}
		})
	}
}

// TestStepRejectsNonFiniteInput: a non-finite value that enters from
// outside Step, a position set by a BeforeTransform hook or between steps
// or a force queued by Pull, ends the next Step on ErrNonFinite with e and
// every position as they were when the transformation began.
func TestStepRejectsNonFiniteInput(t *testing.T) {
	pull := func(p *Placer, ci int, f geom.Point) {
		forces := make([]geom.Point, len(p.nl.Cells))
		forces[ci] = f
		p.Pull(forces)
	}
	for _, tc := range []struct {
		name   string
		hook   bool // inject from BeforeTransform instead of between steps
		inject func(p *Placer, ci int)
	}{
		{"hook NaN x", true, func(p *Placer, ci int) { p.nl.Cells[ci].Pos.X = math.NaN() }},
		{"hook +Inf y", true, func(p *Placer, ci int) { p.nl.Cells[ci].Pos.Y = math.Inf(1) }},
		{"between steps -Inf x", false, func(p *Placer, ci int) { p.nl.Cells[ci].Pos.X = math.Inf(-1) }},
		{"Pull NaN", false, func(p *Placer, ci int) { pull(p, ci, geom.Point{X: math.NaN()}) }},
		{"Pull +Inf", false, func(p *Placer, ci int) { pull(p, ci, geom.Point{Y: math.Inf(1)}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nl := testCircuit(t, 200, 7)
			ci := 0
			for nl.Cells[ci].Fixed {
				ci++
			}
			var p *Placer
			var pos netlist.Placement
			armed := false
			p = New(nl, Config{BeforeTransform: func(int, *Placer) {
				if armed && tc.hook {
					tc.inject(p, ci)
					pos = nl.SnapshotInto(pos)
				}
			}})
			if err := p.Initialize(); err != nil {
				t.Fatal(err)
			}
			if _, err := p.Step(); err != nil {
				t.Fatal(err)
			}
			if !tc.hook {
				tc.inject(p, ci)
				pos = nl.SnapshotInto(pos)
			}
			armed = true
			forces := append([]geom.Point(nil), p.Forces()...)
			if _, err := p.Step(); !errors.Is(err, ErrNonFinite) {
				t.Fatalf("Step returned %v, want ErrNonFinite", err)
			}
			same := func(a, b geom.Point) bool {
				return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
			}
			for i := range nl.Cells {
				if !same(nl.Cells[i].Pos, pos[i]) {
					t.Fatalf("cell %d moved to %v from %v", i, nl.Cells[i].Pos, pos[i])
				}
				if !same(p.Forces()[i], forces[i]) {
					t.Fatalf("e[%d] changed to %v from %v", i, p.Forces()[i], forces[i])
				}
			}
		})
	}
}
