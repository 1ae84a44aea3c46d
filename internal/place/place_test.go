package place

import (
	"math"
	"testing"

	"repro/internal/density"
	"repro/internal/geom"
	"repro/internal/netgen"
	"repro/internal/netlist"
)

func testCircuit(t *testing.T, cells int, seed int64) *netlist.Netlist {
	t.Helper()
	return netgen.Generate(netgen.Config{
		Name:  "t",
		Cells: cells,
		Nets:  cells + cells/3,
		Rows:  8,
		Seed:  seed,
	})
}

// settled reports whether Run stopped on its own terms: the §4.2
// criterion, or stagnation with the best placement restored.
func settled(r StopReason) bool { return r == StopCriterion || r == StopStagnation }

func TestRunSpreadsCells(t *testing.T) {
	nl := testCircuit(t, 300, 1)
	res, err := Global(nl, Config{MaxIter: 120})
	if err != nil {
		t.Fatalf("Global: %v", err)
	}
	if !settled(res.StopReason) {
		t.Errorf("stopped on %q after %d iterations (overflow %.3f, empty sq %.1f, avg cell %.2f)",
			res.StopReason, res.Iterations, res.Overflow, res.Trace[len(res.Trace)-1].EmptySquare, nl.AvgCellArea())
	}
	if res.Overflow > 0.65 {
		t.Errorf("final overflow = %v", res.Overflow)
	}
	// All cells inside the region.
	out := nl.Region.Outline
	for i := range nl.Cells {
		if nl.Cells[i].Fixed {
			continue
		}
		if !out.Contains(nl.Cells[i].Pos) {
			t.Fatalf("cell %d at %v outside region", i, nl.Cells[i].Pos)
		}
	}
}

func TestInitializeSolvesWireLengthOptimum(t *testing.T) {
	nl := testCircuit(t, 50, 2)
	netgen.ScatterRandom(nl, 9)
	scattered := nl.QuadraticWL()
	p := New(nl, Config{})
	if err := p.Initialize(); err != nil {
		t.Fatal(err)
	}
	// Initialize gathers at the center then performs the force-free solve:
	// the result is the quadratic wire-length optimum (at the center every
	// linearization length clamps to one unit, so the weights are the
	// nets' own).
	if got := nl.QuadraticWL(); got >= scattered {
		t.Errorf("initial solve quadratic WL %v not below scattered %v", got, scattered)
	}
	for _, f := range p.Forces() {
		if f != (geom.Point{}) {
			t.Fatal("forces not zeroed")
		}
	}
}

func TestKeepPlacementSkipsGather(t *testing.T) {
	nl := testCircuit(t, 50, 3)
	netgen.ScatterRandom(nl, 10)
	before := nl.Snapshot()
	p := New(nl, Config{KeepPlacement: true})
	p.Initialize()
	after := nl.Snapshot()
	if netlist.MaxDisplacement(before, after) != 0 {
		t.Error("KeepPlacement moved cells")
	}
}

func TestStepReducesOverflowOverTime(t *testing.T) {
	nl := testCircuit(t, 200, 4)
	p := New(nl, Config{})
	if err := p.Initialize(); err != nil {
		t.Fatal(err)
	}
	var first IterStats
	bestOvf, bestSq := math.Inf(1), math.Inf(1)
	for i := 0; i < 40; i++ {
		s, err := p.Step()
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if i == 0 {
			first = s
		} else {
			bestOvf = math.Min(bestOvf, s.Overflow)
			bestSq = math.Min(bestSq, s.EmptySquare)
		}
	}
	if bestOvf >= first.Overflow {
		t.Errorf("overflow did not fall below first-step %v (best %v)", first.Overflow, bestOvf)
	}
	if bestSq >= first.EmptySquare {
		t.Errorf("empty square did not shrink below first-step %v (best %v)", first.EmptySquare, bestSq)
	}
}

func TestFastModeFewerIterations(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second placement comparison")
	}
	// The speed advantage of K=1.0 shows on designs large enough that
	// spreading dominates the iteration count (the paper's fast-mode claim
	// is about its biggest circuits).
	mk := func(k float64) int {
		nl := netgen.Generate(netgen.Config{
			Name: "fastmode", Cells: 2000, Nets: 2600, Rows: 16, Seed: 5,
		})
		res, err := Global(nl, Config{K: k, MaxIter: 300})
		if err != nil {
			t.Fatalf("K=%v: %v", k, err)
		}
		if !settled(res.StopReason) {
			t.Fatalf("K=%v did not converge: stopped on %q", k, res.StopReason)
		}
		return res.Iterations
	}
	fast := mk(1.0)
	std := mk(0.2)
	if fast > std {
		t.Errorf("fast mode took %d iterations, standard %d", fast, std)
	}
}

func TestFastModeWireLengthWorse(t *testing.T) {
	run := func(k float64) float64 {
		nl := testCircuit(t, 250, 6)
		if _, err := Global(nl, Config{K: k, MaxIter: 200}); err != nil {
			t.Fatal(err)
		}
		return nl.HPWL()
	}
	std := run(0.2)
	fast := run(1.0)
	if fast < std {
		t.Logf("note: fast HPWL %.1f below standard %.1f on this circuit", fast, std)
	}
	// Fast mode must at least stay within a sane factor (paper: +6%).
	if fast > 1.5*std {
		t.Errorf("fast HPWL %.1f more than 1.5x standard %.1f", fast, std)
	}
}

func TestBeforeTransformHookRuns(t *testing.T) {
	nl := testCircuit(t, 60, 7)
	calls := 0
	cfg := Config{
		MaxIter: 5,
		BeforeTransform: func(iter int, p *Placer) {
			if iter != calls {
				t.Errorf("hook iter = %d, want %d", iter, calls)
			}
			calls++
		},
	}
	p := New(nl, cfg)
	p.Initialize()
	for i := 0; i < 5; i++ {
		if _, err := p.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 5 {
		t.Errorf("hook ran %d times", calls)
	}
}

func TestOnIterationObserver(t *testing.T) {
	nl := testCircuit(t, 60, 8)
	var seen []int
	_, err := Global(nl, Config{MaxIter: 6, OnIteration: func(s IterStats) {
		seen = append(seen, s.Iter)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 || seen[0] != 0 {
		t.Errorf("observer calls = %v", seen)
	}
}

func TestExtraDemandRepels(t *testing.T) {
	// Injecting heavy demand into the left half must push cells right.
	nl := testCircuit(t, 150, 9)
	avgX := func() float64 {
		var s float64
		var n int
		for i := range nl.Cells {
			if !nl.Cells[i].Fixed {
				s += nl.Cells[i].Pos.X
				n++
			}
		}
		return s / float64(n)
	}
	if _, err := Global(nl, Config{MaxIter: 60}); err != nil {
		t.Fatal(err)
	}
	base := avgX()

	nl2 := testCircuit(t, 150, 9)
	cfg := Config{MaxIter: 60, ExtraDemand: func(g *density.Grid) []float64 {
		extra := make([]float64, g.NX*g.NY)
		hot := g.BinW * g.BinH * 2
		for iy := 0; iy < g.NY; iy++ {
			for ix := 0; ix < g.NX/2; ix++ {
				extra[g.Idx(ix, iy)] = hot
			}
		}
		return extra
	}}
	if _, err := Global(nl2, cfg); err != nil {
		t.Fatal(err)
	}
	var s float64
	var n int
	for i := range nl2.Cells {
		if !nl2.Cells[i].Fixed {
			s += nl2.Cells[i].Pos.X
			n++
		}
	}
	shifted := s / float64(n)
	if shifted <= base {
		t.Errorf("extra left demand: mean x %v not right of baseline %v", shifted, base)
	}
}

func TestMixedBlockPlacement(t *testing.T) {
	// Kraftwerk's claim: blocks and cells placed together without special
	// treatment. The blocks must end inside the region and the overall
	// density must flatten.
	nl := netgen.Generate(netgen.Config{
		Name: "fp", Cells: 200, Nets: 280, Rows: 24, Blocks: 4, Seed: 10,
	})
	res, err := Global(nl, Config{MaxIter: 150})
	if err != nil {
		t.Fatal(err)
	}
	out := nl.Region.Outline
	for i := range nl.Cells {
		c := &nl.Cells[i]
		if c.Fixed {
			continue
		}
		if !out.ContainsRect(c.Rect().Expand(-1e-6)) {
			t.Errorf("cell %q rect %v outside region", c.Name, c.Rect())
		}
	}
	if res.Overflow > 0.45 {
		t.Errorf("mixed-block overflow = %v", res.Overflow)
	}
	// Blocks must have separated from the center pile.
	var blocks []geom.Point
	for i := range nl.Cells {
		if !nl.Cells[i].Fixed && nl.Cells[i].H > 1.5 {
			blocks = append(blocks, nl.Cells[i].Pos)
		}
	}
	if len(blocks) != 4 {
		t.Fatalf("found %d blocks", len(blocks))
	}
	minPair := math.Inf(1)
	for i := range blocks {
		for j := i + 1; j < len(blocks); j++ {
			if d := blocks[i].Dist(blocks[j]); d < minPair {
				minPair = d
			}
		}
	}
	if minPair < 1 {
		t.Errorf("blocks still piled together (min pair distance %v)", minPair)
	}
}

func TestHPWLBetterThanRandom(t *testing.T) {
	nl := testCircuit(t, 300, 11)
	netgen.ScatterRandom(nl, 99)
	randomHPWL := nl.HPWL()
	if _, err := Global(nl, Config{MaxIter: 120}); err != nil {
		t.Fatal(err)
	}
	placed := nl.HPWL()
	if placed >= randomHPWL {
		t.Errorf("placed HPWL %v not below random %v", placed, randomHPWL)
	}
	// A good analytical placement should beat random by a wide margin.
	if placed > 0.7*randomHPWL {
		t.Errorf("placed HPWL %v is only marginally below random %v", placed, randomHPWL)
	}
}

func TestGridBinsAutoSelection(t *testing.T) {
	nl := testCircuit(t, 300, 12)
	p := New(nl, Config{})
	if g := p.Grid(); g.NX < 4 || g.NX > 512 || g.NY < 4 || g.NY > 512 {
		t.Errorf("auto bins = %dx%d", g.NX, g.NY)
	}
	// Bins stay roughly square: aspect-proportional split.
	g := p.Grid()
	if ratio := g.BinW / g.BinH; ratio > 4 || ratio < 0.25 {
		t.Errorf("bin aspect ratio = %v", ratio)
	}
	// A larger design yields a finer grid.
	g2 := New(testCircuit(t, 1200, 12), Config{}).Grid()
	if g2.NX*g2.NY <= g.NX*g.NY {
		t.Errorf("1200 cells gave %dx%d, 300 cells gave %dx%d", g2.NX, g2.NY, g.NX, g.NY)
	}
}

func TestDoneCriterion(t *testing.T) {
	nl := testCircuit(t, 100, 13)
	p := New(nl, Config{})
	if !p.Done(IterStats{EmptySquare: 0}) {
		t.Error("zero empty square should be done")
	}
	if p.Done(IterStats{EmptySquare: 1e9}) {
		t.Error("huge empty square should not be done")
	}
}
