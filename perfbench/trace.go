package main

import (
	"bufio"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/density"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/obsv"
	"repro/internal/place"
	"repro/internal/qp"
	"repro/internal/sparse"
)

// span is one timed section of a traced run. Spans form a tree through
// Parent (0 = none); every span of one operation descends from its op.*
// span, whose ID identifies the operation.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the tracer was created
	Dur    time.Duration `json:"dur_ns"`
	// LaidOut marks a child whose start was not observed: IterStats and the
	// legalize pass aggregates carry durations only, so such children are
	// laid end to end from their parent's start, in execution order. The
	// parent's time outside them is its self time.
	LaidOut bool               `json:"laid_out,omitempty"`
	Attrs   map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps a run's spans in memory until write. A nil *tracer records
// nothing and reads no clock, so operations are written once for both the
// traced and the untraced run.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its ID.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: time.Since(t.t0)})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	s := &t.spans[id-1]
	s.Dur = time.Since(t.t0) - s.Start
	return s.Dur
}

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent int, start, dur time.Duration, laidOut bool, attrs map[string]float64) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start, Dur: dur, LaidOut: laidOut, Attrs: attrs})
	return len(t.spans)
}

// step records one placement transformation, observed through
// place.Config.OnIteration as it returns, with its phases as children.
func (t *tracer) step(parent int, s place.IterStats) {
	end := time.Since(t.t0)
	id := t.add("place.Step", parent, end-s.TStep, s.TStep, false, map[string]float64{
		"iter": float64(s.Iter), "hpwl": s.HPWL, "overflow": s.Overflow,
		"cg_iter_x": float64(s.CGIterX), "cg_iter_y": float64(s.CGIterY),
	})
	at := end - s.TStep
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{
		{"weight", s.TWeight}, {"gather", s.TGather}, {"field", s.TField},
		{"build", s.TBuild}, {"solve_pair", s.TSolvePair},
	} {
		if ph.d > 0 {
			t.add("place.Step/"+ph.name, id, at, ph.d, true, nil)
			at += ph.d
		}
	}
}

// laidOut adds the named pass aggregates of agg as children of parent.
func (t *tracer) laidOut(parent int, agg *obsv.Spans, names ...string) {
	if t == nil {
		return
	}
	at := t.spans[parent-1].Start
	for _, name := range names {
		st := agg.Get(name)
		if st.Count == 0 {
			continue
		}
		t.add(name, parent, at, st.Total, true, nil)
		at += st.Total
	}
}

// write stores the spans as JSON lines under a leading meta record.
func (t *tracer) write(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(meta); err != nil {
		return err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// probeReps is how often the probe repeats each call; it reports medians.
const probeReps = 5

// probe times single layer calls on a copy of one netlist state, the way
// a placement transformation makes them: the qp assembly (symbolic build,
// then numeric refill), the IC0 pattern and refactorization, one CG solve
// pair for a fixed seeded force vector from a zero guess, and the density
// gather and field. Its numbers do not depend on the placement trajectory,
// so they stay comparable when a change moves the iteration count.
func probe(src *netlist.Netlist, seed int64, tr *tracer, name string) map[string]float64 {
	nl := src.Clone()
	root := tr.start(name, 0)
	timed := func(label string, f func()) float64 {
		sp := tr.start(name+"/"+label, root)
		t0 := time.Now()
		f()
		d := time.Since(t0)
		tr.end(sp)
		return ms(d)
	}

	var symbolic, refill, pattern, refactor, solve, gather, field []float64
	var sys *qp.System
	for i := 0; i < probeReps; i++ {
		asm := qp.NewAssembler(nl, qp.Options{Linearize: true}) // place's default system
		symbolic = append(symbolic, timed("qp.symbolic", func() { asm.Assemble() }))
		refill = append(refill, timed("qp.refill", func() { sys = asm.Assemble() }))
		var f *sparse.IC0Factor
		pattern = append(pattern, timed("sparse.ic0_pattern", func() { f = sparse.NewIC0Pattern(sys.Matrix()) }))
		refactor = append(refactor, timed("sparse.ic0_refactor", func() { f.Refactor(sys.Matrix()) }))
	}

	rng := rand.New(rand.NewSource(seed))
	forces := make([]geom.Point, len(nl.Cells))
	for ci := range forces {
		if !nl.Cells[ci].Fixed {
			forces[ci] = geom.Point{X: rng.NormFloat64(), Y: rng.NormFloat64()}
		}
	}
	snap := nl.Snapshot()
	dx, dy := make([]float64, sys.N()), make([]float64, sys.N())
	var cgIters int
	for i := 0; i < probeReps; i++ {
		clear(dx)
		clear(dy)
		res, err := sys.SolveDeltaFrom(forces, dx, dy, sparse.CGOptions{Tol: 1e-6})
		nl.Restore(snap)
		if err != nil {
			solve = append(solve, -1) // unconverged: visible, never silently fast
			continue
		}
		// The pair's wall time, without the one-off preconditioner set-up
		// the first solve of a system pays.
		solve = append(solve, ms(res.PairWall))
		cgIters = res.X.Iterations + res.Y.Iterations
		tr.add(name+"/sparse.solve_pair", root, time.Since(tr.t0)-res.PairWall, res.PairWall, false,
			map[string]float64{"cg_iters": float64(cgIters), "precond": float64(res.X.Precond)})
	}

	g := place.New(nl, place.Config{}).Grid() // the grid place would use
	for i := 0; i <= probeReps; i++ {
		gd := timed("density.gather", func() { g.Accumulate(nl) })
		fd := timed("density.field", func() { density.ComputeField(g, density.Auto) })
		if i > 0 { // the first field evaluation builds the solver cache
			gather = append(gather, gd)
			field = append(field, fd)
		}
	}
	tr.end(root)

	return map[string]float64{
		"qp.nnz":                  float64(sys.Matrix().NNZ()),
		"qp.symbolic_ms":          median(symbolic),
		"qp.refill_ms":            median(refill),
		"sparse.ic0_pattern_ms":   median(pattern),
		"sparse.ic0_refactor_ms":  median(refactor),
		"sparse.probe_solve_ms":   median(solve),
		"sparse.probe_cg_iters":   float64(cgIters),
		"density.probe_gather_ms": median(gather),
		"density.probe_field_ms":  median(field),
	}
}
