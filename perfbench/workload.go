package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/eco"
	"repro/internal/legalize"
	"repro/internal/netgen"
	"repro/internal/netlist"
	"repro/internal/obsv"
	"repro/internal/place"
)

// setup is one set-up of a workload: the generated circuit, placed once
// when the workload re-places edits of it.
type setup struct {
	nl              *netlist.Netlist
	generate, total time.Duration
	fails           []string
}

func setUp(w workload) setup {
	t0 := time.Now()
	nl := netgen.Generate(w.gen)
	s := setup{nl: nl, generate: time.Since(t0)}
	if w.eco {
		res, err := place.New(nl, place.Config{}).Run(context.Background())
		if err != nil {
			s.fails = append(s.fails, fmt.Sprintf("base placement: %v", err))
		}
		s.fails = append(s.fails, checkStop(res.StopReason)...)
		s.fails = append(s.fails, checkInside(nl)...)
	}
	s.total = time.Since(t0)
	return s
}

// kplaceOp places a fresh copy of base the way cmd/kplace does: global
// placement to the stop rule, then legalization.
func kplaceOp(base *netlist.Netlist) (operation, int) {
	return func(_ int, tr *tracer) opResult {
		nl := base.Clone()
		opSpan := tr.start("op.kplace", 0)
		var runSpan int
		cfg := place.Config{}
		var legalSpans *obsv.Spans
		if tr != nil {
			cfg.OnIteration = func(s place.IterStats) { tr.step(runSpan, s) }
			legalSpans = obsv.NewSpans()
		}
		var r opResult
		a0 := allocated()
		t0 := time.Now()

		sp := tr.start("place.New", opSpan)
		p := place.New(nl, cfg)
		tr.end(sp)
		sp = tr.start("place.Initialize", opSpan)
		err := p.Initialize()
		initDur := tr.end(sp)
		if err != nil {
			r.fails = append(r.fails, fmt.Sprintf("initialize: %v", err))
		}
		runSpan = tr.start("place.Run", opSpan)
		res, err := p.Run(context.Background())
		tr.end(runSpan)
		if err != nil {
			r.fails = append(r.fails, fmt.Sprintf("run: %v", err))
		}
		sp = tr.start("legalize.Legalize", opSpan)
		lres, err := legalize.Legalize(nl, legalize.Options{Spans: legalSpans})
		legalDur := tr.end(sp)
		tr.laidOut(sp, legalSpans, "legalize/blocks", "legalize/assign", "legalize/clump", "legalize/detailed")
		if err != nil {
			r.fails = append(r.fails, fmt.Sprintf("legalize: %v", err))
		}

		r.wall = time.Since(t0)
		tr.end(opSpan)
		r.alloc = allocated() - a0
		r.hpwl = nl.HPWL()
		r.disp = lres.Displacement / float64(nl.NumMovable())
		r.final = nl
		r.fails = append(r.fails, checkStop(res.StopReason)...)
		r.fails = append(r.fails, checkInside(nl)...)
		if ov := nl.OverlapArea(); ov > overlapTol*nl.MovableArea() {
			r.fails = append(r.fails, fmt.Sprintf("overlap area %g after legalization", ov))
		}
		if tr != nil {
			r.layers = placeLayers(res.Trace)
			r.layers["place.init_s"] = initDur.Seconds()
			r.layers["legalize.s"] = legalDur.Seconds()
			r.layers["legalize.assign_s"] = legalSpans.Get("legalize/assign").Total.Seconds()
			r.layers["legalize.clump_s"] = legalSpans.Get("legalize/clump").Total.Seconds()
			r.layers["legalize.detailed_s"] = legalSpans.Get("legalize/detailed").Total.Seconds()
			r.layers["legalize.swaps"] = float64(lres.Swaps)
			r.layers["legalize.overhang_cells"] = float64(overhanging(nl))
			r.layers["legalize.hpwl_gain_pct"] = 100 * (lres.HPWLBefore - lres.HPWLAfter) / lres.HPWLBefore
			r.layers["eco.apply_ms"] = 0
			r.layers["eco.replace_ms"] = 0
		}
		return r
	}, 1
}

// ECO edits: each batch adds ecoNewCells buffers, each hung off a random
// existing cell by a two-pin net, resizes one gate and removes one net —
// the patch shape logic synthesis hands back (§5).
const (
	ecoBatches  = 24
	ecoNewCells = 16
	ecoSteps    = 15 // eco.Replace's default step count
)

// ecoOp re-places seeded edits of the placed base; operation i applies
// batch i mod ecoBatches to a fresh copy.
func ecoOp(base *netlist.Netlist, seed int64) (operation, int) {
	batches := ecoEdits(base, seed)
	return func(i int, tr *tracer) opResult {
		nl := base.Clone()
		pre := nl.Snapshot()
		batch := batches[i%len(batches)]
		opSpan := tr.start("op.eco", 0)
		var replaceSpan int
		cfg := place.Config{}
		if tr != nil {
			cfg.OnIteration = func(s place.IterStats) { tr.step(replaceSpan, s) }
		}
		var r opResult
		a0 := allocated()
		t0 := time.Now()

		sp := tr.start("eco.Apply", opSpan)
		added, err := eco.Apply(nl, batch)
		applyDur := tr.end(sp)
		if err != nil {
			r.fails = append(r.fails, fmt.Sprintf("apply: %v", err))
		}
		replaceSpan = tr.start("eco.Replace", opSpan)
		res, err := eco.Replace(nl, pre, cfg)
		replaceDur := tr.end(replaceSpan)
		if err != nil {
			r.fails = append(r.fails, fmt.Sprintf("replace: %v", err))
		}

		r.wall = time.Since(t0)
		tr.end(opSpan)
		r.alloc = allocated() - a0
		r.hpwl = res.HPWLAfter
		r.disp = res.TotalDisplacement / float64(base.NumMovable())
		r.final = nl
		if len(added) != ecoNewCells || len(nl.Cells) != len(base.Cells)+ecoNewCells {
			r.fails = append(r.fails, fmt.Sprintf("%d cells added, %d cells total; want %d and %d",
				len(added), len(nl.Cells), ecoNewCells, len(base.Cells)+ecoNewCells))
		}
		if res.Place.Iterations != ecoSteps {
			r.fails = append(r.fails, fmt.Sprintf("%d re-placement steps, want %d", res.Place.Iterations, ecoSteps))
		}
		r.fails = append(r.fails, checkInside(nl)...)
		if tr != nil {
			r.layers = placeLayers(res.Place.Trace)
			// Replace's own New + Initialize (a no-op solve under
			// KeepPlacement) and bookkeeping: its time outside the steps.
			var steps time.Duration
			for _, s := range res.Place.Trace {
				steps += s.TStep
			}
			r.layers["place.init_s"] = (replaceDur - steps).Seconds()
			r.layers["eco.apply_ms"] = ms(applyDur)
			r.layers["eco.replace_ms"] = ms(replaceDur)
			for _, k := range []string{"legalize.s", "legalize.assign_s", "legalize.clump_s",
				"legalize.detailed_s", "legalize.swaps", "legalize.overhang_cells", "legalize.hpwl_gain_pct"} {
				r.layers[k] = 0 // ECO does not legalize
			}
		}
		return r
	}, ecoBatches
}

// ecoEdits draws the seeded edit batches. Every index refers to the base
// netlist, so each batch applies to a fresh copy of it.
func ecoEdits(base *netlist.Netlist, seed int64) [][]eco.Change {
	rng := rand.New(rand.NewSource(seed))
	var movable []int
	for ci := range base.Cells {
		if !base.Cells[ci].Fixed {
			movable = append(movable, ci)
		}
	}
	pick := func() int { return movable[rng.Intn(len(movable))] }
	batches := make([][]eco.Change, ecoBatches)
	for b := range batches {
		var ch []eco.Change
		for i := 0; i < ecoNewCells; i++ {
			like := base.Cells[pick()]
			ch = append(ch, eco.Change{RemoveNet: -1, AddCell: &netlist.Cell{
				Name: fmt.Sprintf("eco%d_buf%d", b, i), W: like.W, H: like.H,
			}})
		}
		for i := 0; i < ecoNewCells; i++ {
			ch = append(ch, eco.Change{RemoveNet: -1, AddNet: &netlist.Net{
				Name: fmt.Sprintf("eco%d_net%d", b, i),
				Pins: []netlist.Pin{
					{Cell: len(base.Cells) + i, Dir: netlist.Output},
					{Cell: pick(), Dir: netlist.Input},
				},
			}})
		}
		ch = append(ch,
			eco.Change{RemoveNet: -1, ResizeCell: &eco.Resize{Index: pick(), Factor: 1.2 + 0.4*rng.Float64()}},
			eco.Change{RemoveNet: rng.Intn(len(base.Nets))},
		)
		batches[b] = ch
	}
	return batches
}

// placeLayers derives the per-layer numbers of one placement run from its
// per-transformation stats.
func placeLayers(trace []place.IterStats) map[string]float64 {
	m := map[string]float64{"place.iterations": float64(len(trace))}
	var gather, field, build, pair, unattr time.Duration
	var cg int
	steps := make([]float64, len(trace))
	for i, s := range trace {
		gather += s.TGather
		field += s.TField
		build += s.TBuild
		pair += s.TSolvePair
		unattr += s.TStep - s.TWeight - s.TGather - s.TField - s.TBuild - s.TSolvePair
		cg += s.CGIterX + s.CGIterY
		steps[i] = ms(s.TStep)
	}
	if len(trace) > 0 {
		m["place.first_step_ms"] = steps[0]
	}
	m["place.step_p50_ms"] = median(steps)
	m["place.unattributed_s"] = unattr.Seconds()
	m["qp.build_s"] = build.Seconds()
	m["sparse.solve_pair_s"] = pair.Seconds()
	m["sparse.cg_iters"] = float64(cg)
	m["density.gather_s"] = gather.Seconds()
	m["density.field_s"] = field.Seconds()
	return m
}

// overlapTol is the legal-placement overlap tolerance as a share of the
// movable area: abutting cells may overlap by float rounding, nothing more.
const overlapTol = 1e-9

// checkStop fails a global run that ended for any reason but its own.
func checkStop(r place.StopReason) []string {
	switch r {
	case place.StopCriterion, place.StopStagnation, place.StopMaxIter:
		return nil
	}
	return []string{fmt.Sprintf("stop reason %q", r)}
}

// checkInside fails movable cells whose position (center) is not finite
// or lies outside the region.
func checkInside(nl *netlist.Netlist) []string {
	out := nl.Region.Outline
	eps := 1e-6 * (out.W() + out.H())
	bad := 0
	var first string
	for ci := range nl.Cells {
		c := &nl.Cells[ci]
		if c.Fixed {
			continue
		}
		p := c.Pos
		ok := !math.IsNaN(p.X) && !math.IsNaN(p.Y) && !math.IsInf(p.X, 0) && !math.IsInf(p.Y, 0) &&
			p.X >= out.Lo.X-eps && p.Y >= out.Lo.Y-eps && p.X <= out.Hi.X+eps && p.Y <= out.Hi.Y+eps
		if !ok {
			if bad == 0 {
				first = fmt.Sprintf("cell %d at (%g, %g)", ci, p.X, p.Y)
			}
			bad++
		}
	}
	if bad > 0 {
		return []string{fmt.Sprintf("%d cells non-finite or outside the region, first %s", bad, first)}
	}
	return nil
}

// overhanging counts movable cells whose footprint crosses the region
// outline. A legal placement should have none; the legalizer can push the
// last cells of a full row past its end, which the count makes visible
// without failing the run.
func overhanging(nl *netlist.Netlist) int {
	out := nl.Region.Outline
	eps := 1e-6 * (out.W() + out.H())
	n := 0
	for ci := range nl.Cells {
		c := &nl.Cells[ci]
		if c.Fixed {
			continue
		}
		r := c.Rect()
		if r.Lo.X < out.Lo.X-eps || r.Lo.Y < out.Lo.Y-eps || r.Hi.X > out.Hi.X+eps || r.Hi.Y > out.Hi.Y+eps {
			n++
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
