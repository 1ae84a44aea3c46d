package eco

import (
	"math/rand"
	"testing"

	"repro/internal/netgen"
	"repro/internal/netlist"
	"repro/internal/place"
)

func placedCircuit(t *testing.T, cells int, seed int64) *netlist.Netlist {
	t.Helper()
	nl := netgen.Generate(netgen.Config{Name: "e", Cells: cells, Nets: cells + cells/3, Rows: 8, Seed: seed})
	if _, err := place.Global(nl, place.Config{MaxIter: 60}); err != nil {
		t.Fatal(err)
	}
	return nl
}

func TestApplyAddsCellsAndNets(t *testing.T) {
	nl := placedCircuit(t, 150, 101)
	n0 := len(nl.Cells)
	added, err := Apply(nl, []Change{
		{RemoveNet: -1, AddCell: &netlist.Cell{Name: "new1", W: 2, H: 1}},
		{RemoveNet: -1, AddCell: &netlist.Cell{Name: "new2", W: 1, H: 1}},
		{RemoveNet: -1, AddNet: &netlist.Net{Name: "nn", Pins: []netlist.Pin{
			{Cell: n0, Dir: netlist.Output},
			{Cell: n0 + 1, Dir: netlist.Input},
			{Cell: 3, Dir: netlist.Input},
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 2 || len(nl.Cells) != n0+2 {
		t.Fatalf("added = %v", added)
	}
	// New cells seeded near their neighbor (cell 3).
	if d := nl.Cells[n0].Pos.Dist(nl.Cells[3].Pos); d > nl.Region.W()/2 {
		t.Errorf("seed position %v far from neighbor %v", nl.Cells[n0].Pos, nl.Cells[3].Pos)
	}
}

func TestApplyResizeAndRemove(t *testing.T) {
	nl := placedCircuit(t, 100, 102)
	w0 := nl.Cells[5].W
	nNets := len(nl.Nets)
	if _, err := Apply(nl, []Change{
		{RemoveNet: -1, ResizeCell: &Resize{Index: 5, Factor: 1.5}},
		{RemoveNet: 2},
	}); err != nil {
		t.Fatal(err)
	}
	if nl.Cells[5].W != w0*1.5 {
		t.Errorf("resize failed: %v", nl.Cells[5].W)
	}
	if len(nl.Nets) != nNets-1 {
		t.Errorf("net not removed: %d", len(nl.Nets))
	}
}

func TestApplyErrors(t *testing.T) {
	nl := placedCircuit(t, 50, 103)
	cases := [][]Change{
		{{RemoveNet: -1}}, // empty change
		{{RemoveNet: 9999}},
		{{RemoveNet: -1, ResizeCell: &Resize{Index: -1, Factor: 2}}},
		{{RemoveNet: -1, ResizeCell: &Resize{Index: 0, Factor: 0}}},
		{{RemoveNet: -1, AddNet: &netlist.Net{Name: "bad", Pins: []netlist.Pin{{Cell: 1}, {Cell: 12345}}}}},
	}
	for i, chs := range cases {
		if _, err := Apply(nl.Clone(), chs); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// smallEdit places a 300-cell circuit and adds one cell driving a net to
// two existing cells. It returns the edited netlist and the pre-edit
// snapshot.
func smallEdit(t *testing.T) (*netlist.Netlist, netlist.Placement) {
	t.Helper()
	nl := placedCircuit(t, 300, 104)
	pre := nl.Snapshot()
	n0 := len(nl.Cells)
	if _, err := Apply(nl, []Change{
		{RemoveNet: -1, AddCell: &netlist.Cell{Name: "x1", W: 2, H: 1}},
		{RemoveNet: -1, AddNet: &netlist.Net{Name: "xn", Pins: []netlist.Pin{
			{Cell: n0, Dir: netlist.Output},
			{Cell: 10, Dir: netlist.Input},
			{Cell: 11, Dir: netlist.Input},
		}}},
	}); err != nil {
		t.Fatal(err)
	}
	return nl, pre
}

func TestReplaceDisturbsLittle(t *testing.T) {
	nl, pre := smallEdit(t)
	n0 := len(pre)
	res, err := Replace(nl, pre, place.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// "An incrementally changed netlist results in small changes in the
	// placement": mean displacement a couple of row heights at most — the
	// spring network spreads any local force a little — and well under
	// 2 % of the chip span.
	mean := res.TotalDisplacement / float64(n0)
	if mean > 2.0 {
		t.Errorf("mean displacement %v rows after tiny ECO", mean)
	}
	span := nl.Region.W() + nl.Region.H()
	if mean > 0.02*span {
		t.Errorf("mean displacement %v above 2%% of span %v", mean, span)
	}
	if res.MaxDisplacement > nl.Region.W()/2 {
		t.Errorf("max displacement %v is half the chip", res.MaxDisplacement)
	}
}

func TestReplaceAbsorbsLocalDensitySpike(t *testing.T) {
	nl := placedCircuit(t, 200, 105)
	pre := nl.Snapshot()
	// Add a burst of cells all connected to one existing cell: they seed
	// on top of it and must be spread out by the density forces.
	var changes []Change
	base := len(nl.Cells)
	for i := 0; i < 10; i++ {
		changes = append(changes, Change{RemoveNet: -1, AddCell: &netlist.Cell{W: 2, H: 1}})
	}
	for i := 0; i < 10; i++ {
		changes = append(changes, Change{RemoveNet: -1, AddNet: &netlist.Net{
			Pins: []netlist.Pin{
				{Cell: base + i, Dir: netlist.Output},
				{Cell: 7, Dir: netlist.Input},
			},
		}})
	}
	if _, err := Apply(nl, changes); err != nil {
		t.Fatal(err)
	}
	res, err := Replace(nl, pre, place.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The new cells must not all sit on one point anymore.
	distinct := map[[2]int]bool{}
	for i := 0; i < 10; i++ {
		p := nl.Cells[base+i].Pos
		distinct[[2]int{int(p.X), int(p.Y)}] = true
	}
	if len(distinct) < 3 {
		t.Errorf("ECO cells still piled: %d distinct unit positions", len(distinct))
	}
	// Like every run, an ECO run ends in a declared stop reason: max-iter,
	// since it always runs its whole step budget.
	switch res.Place.StopReason {
	case place.StopCriterion, place.StopStagnation, place.StopMaxIter, place.StopCancelled, place.StopDeadline:
	default:
		t.Errorf("StopReason %q is not a declared place.Stop* constant", res.Place.StopReason)
	}
	if res.Place.StopReason != place.StopMaxIter || res.Place.Iterations != 15 {
		t.Errorf("stop %q after %d steps, want max-iter after the 15-step budget", res.Place.StopReason, res.Place.Iterations)
	}
}

// cgIters sums a run's CG iterations over both axes.
func cgIters(trace []place.IterStats) int {
	n := 0
	for _, s := range trace {
		n += s.CGIterX + s.CGIterY
	}
	return n
}

// TestReplaceCGTolerance pins the ECO solve tolerance: with cfg.CG unset,
// every step's solves stop at cgTol, for fewer CG iterations than the
// global flow's 1e-6 takes on the same edit, and an explicit tolerance
// is honoured. Iteration counts are deterministic.
func TestReplaceCGTolerance(t *testing.T) {
	run := func(tol float64) []place.IterStats {
		t.Helper()
		nl, pre := smallEdit(t)
		cfg := place.Config{}
		cfg.CG.Tol = tol
		res, err := Replace(nl, pre, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Place.Trace) != 15 {
			t.Fatalf("tol %g: %d trace records, want 15", tol, len(res.Place.Trace))
		}
		return res.Place.Trace
	}
	loose, tight := run(0), run(1e-6)
	for _, c := range []struct {
		tol   float64
		trace []place.IterStats
	}{{cgTol, loose}, {1e-6, tight}} {
		for _, s := range c.trace {
			if s.CGResidX > c.tol || s.CGResidY > c.tol {
				t.Errorf("tol %g: step %d residuals %g, %g", c.tol, s.Iter, s.CGResidX, s.CGResidY)
			}
		}
	}
	if li, ti := cgIters(loose), cgIters(tight); li >= ti {
		t.Errorf("ECO default took %d CG iterations, tolerance 1e-6 took %d", li, ti)
	}
}

// TestReplaceToleratesUnconvergedSolves: a solve that stops short of its
// tolerance does not end an ECO run, on the first step or any later one,
// just as it does not end place.Placer.Run; the trace reports it.
func TestReplaceToleratesUnconvergedSolves(t *testing.T) {
	nl, pre := smallEdit(t)
	cfg := place.Config{}
	cfg.CG.MaxIter = 2
	res, err := Replace(nl, pre, cfg)
	if err != nil {
		t.Fatalf("capped CG ended the run: %v", err)
	}
	if res.Place.Iterations != 15 || len(res.Place.Trace) != 15 {
		t.Fatalf("%d steps, %d trace records, want the 15-step budget", res.Place.Iterations, len(res.Place.Trace))
	}
	short := 0
	for _, s := range res.Place.Trace {
		if s.CGIterX > 2 || s.CGIterY > 2 {
			t.Errorf("step %d ran %d, %d CG iterations past the cap of 2", s.Iter, s.CGIterX, s.CGIterY)
		}
		if s.CGResidX > cgTol || s.CGResidY > cgTol {
			short++
		}
	}
	if short == 0 {
		t.Error("no step reports a residual above tolerance; the cap did not bind")
	}
}

// TestReplaceResultLikeRun: Result.Place carries the run's phase sums and
// runtime as place.Placer.Run's result does, and NoTrace drops only the
// trace.
func TestReplaceResultLikeRun(t *testing.T) {
	nl, pre := smallEdit(t)
	res, err := Replace(nl, pre, place.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var want place.Phases
	for _, s := range res.Place.Trace {
		want.Add(s.Phases)
	}
	if res.Place.Phases != want {
		t.Errorf("Result.Place.Phases %+v != trace sum %+v", res.Place.Phases, want)
	}
	if res.Place.Runtime <= 0 || res.Place.Runtime < res.Place.Phases.TStep {
		t.Errorf("Runtime %v, summed step time %v", res.Place.Runtime, res.Place.Phases.TStep)
	}

	nl, pre = smallEdit(t)
	calls := 0
	res, err = Replace(nl, pre, place.Config{NoTrace: true, OnIteration: func(place.IterStats) { calls++ }})
	if err != nil {
		t.Fatal(err)
	}
	if res.Place.Trace != nil {
		t.Errorf("NoTrace left %d trace records", len(res.Place.Trace))
	}
	if res.Place.Iterations != 15 || calls != 15 || res.Place.Phases.TStep <= 0 || res.Place.Runtime <= 0 {
		t.Errorf("NoTrace dropped aggregates: %d steps, %d observer calls, step time %v, runtime %v",
			res.Place.Iterations, calls, res.Place.Phases.TStep, res.Place.Runtime)
	}
}

// BenchmarkReplace re-places one seeded edit batch (16 buffers, each
// hung off a random cell by a two-pin net, one resize and one net
// removal) on the placed netgen 2k circuit, with default settings. It
// reports the run's CG iterations, a deterministic count, as cg_iters/op.
func BenchmarkReplace(b *testing.B) {
	base := netgen.Generate(netgen.Config{Name: "bench-2k", Cells: 2000, Nets: 2666, Rows: 16, Seed: 1})
	if _, err := place.Global(base, place.Config{}); err != nil {
		b.Fatal(err)
	}
	batch := editBatch(base, rand.New(rand.NewSource(1)), 16)
	cg := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		nl := base.Clone()
		pre := nl.Snapshot()
		if _, err := Apply(nl, batch); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := Replace(nl, pre, place.Config{})
		if err != nil {
			b.Fatal(err)
		}
		cg += cgIters(res.Place.Trace)
	}
	b.ReportMetric(float64(cg)/float64(b.N), "cg_iters/op")
}

// editBatch draws an edit of base: n buffers, each the size of a random
// movable cell and driven by a two-pin net from another random one, a
// resize of one gate and the removal of one net.
func editBatch(base *netlist.Netlist, rng *rand.Rand, n int) []Change {
	var movable []int
	for ci := range base.Cells {
		if !base.Cells[ci].Fixed {
			movable = append(movable, ci)
		}
	}
	pick := func() int { return movable[rng.Intn(len(movable))] }
	var ch []Change
	for i := 0; i < n; i++ {
		like := base.Cells[pick()]
		ch = append(ch, Change{RemoveNet: -1, AddCell: &netlist.Cell{W: like.W, H: like.H}})
	}
	for i := 0; i < n; i++ {
		ch = append(ch, Change{RemoveNet: -1, AddNet: &netlist.Net{Pins: []netlist.Pin{
			{Cell: len(base.Cells) + i, Dir: netlist.Output},
			{Cell: pick(), Dir: netlist.Input},
		}}})
	}
	return append(ch,
		Change{RemoveNet: -1, ResizeCell: &Resize{Index: pick(), Factor: 1.2 + 0.4*rng.Float64()}},
		Change{RemoveNet: rng.Intn(len(base.Nets))},
	)
}
