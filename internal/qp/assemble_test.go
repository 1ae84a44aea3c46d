package qp

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/netgen"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/sparse"
)

// sameSystem compares an assembler-produced system against a fresh Build of
// the same netlist state. The assembly insertion order is identical on both
// paths; only the duplicate-merge summation order differs (Build sums in
// sorted order, Refill in insertion order), so values agree to roundoff.
func sameSystem(t *testing.T, tag string, got, want *System) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("%s: N %d vs %d", tag, got.N(), want.N())
	}
	n := got.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			g, w := got.C.At(i, j), want.C.At(i, j)
			if d := math.Abs(g - w); d > 1e-9*(1+math.Abs(w)) {
				t.Fatalf("%s: C[%d,%d] = %g, want %g", tag, i, j, g, w)
			}
		}
	}
	for i := 0; i < n; i++ {
		if d := math.Abs(got.Dx[i] - want.Dx[i]); d > 1e-9*(1+math.Abs(want.Dx[i])) {
			t.Fatalf("%s: Dx[%d] = %g, want %g", tag, i, got.Dx[i], want.Dx[i])
		}
		if d := math.Abs(got.Dy[i] - want.Dy[i]); d > 1e-9*(1+math.Abs(want.Dy[i])) {
			t.Fatalf("%s: Dy[%d] = %g, want %g", tag, i, got.Dy[i], want.Dy[i])
		}
	}
}

func assemblerNetlist(seed int64) *netlist.Netlist {
	return netgen.Generate(netgen.Config{
		Name: "asm", Cells: 60, Nets: 80, Rows: 4, Seed: seed,
	})
}

func TestAssemblerMatchesBuildAcrossChanges(t *testing.T) {
	for _, opts := range []Options{
		{},
		{Linearize: true},
	} {
		nl := assemblerNetlist(31)
		a := NewAssembler(nl, opts)
		sameSystem(t, "initial", a.Assemble(), Build(nl, opts))

		// Move every cell (changes linearized weights).
		for ci := range nl.Cells {
			if !nl.Cells[ci].Fixed {
				nl.Cells[ci].Pos.X += float64(ci%5) - 2
				nl.Cells[ci].Pos.Y += float64(ci%3) - 1
			}
		}
		sameSystem(t, "after move", a.Assemble(), Build(nl, opts))

		// Re-weight some nets (timing-driven placement does this).
		for ni := range nl.Nets {
			if ni%4 == 0 {
				nl.Nets[ni].Weight *= 2.5
			}
		}
		sameSystem(t, "after reweight", a.Assemble(), Build(nl, opts))
	}
}

func TestAssemblerFullSkipReturnsSameSystem(t *testing.T) {
	nl := assemblerNetlist(32)
	a := NewAssembler(nl, Options{}) // no linearization: skippable
	s1 := a.Assemble()
	// Moving cells cannot change a non-linearized system; the
	// assembler must detect that and return the cached system untouched.
	for ci := range nl.Cells {
		if !nl.Cells[ci].Fixed {
			nl.Cells[ci].Pos.X += 3
		}
	}
	s2 := a.Assemble()
	if s1 != s2 {
		t.Fatal("full-skip path rebuilt the system")
	}
	sameSystem(t, "skip", s2, Build(nl, Options{}))

	// A weight change must break the skip.
	nl.Nets[0].Weight *= 3
	s3 := a.Assemble()
	sameSystem(t, "post-reweight", s3, Build(nl, Options{}))
}

func TestAssemblerRebuildsOnTopologyChange(t *testing.T) {
	nl := assemblerNetlist(33)
	a := NewAssembler(nl, Options{Linearize: true})
	a.Assemble()

	// Append a cell and a net touching it: counts change, the assembler must
	// rebuild instead of refilling a stale pattern.
	nl.Cells = append(nl.Cells, nl.Cells[0])
	nl.Cells[len(nl.Cells)-1].Name = "extra"
	nl.Nets = append(nl.Nets, netlist.Net{
		Name:   "extra-net",
		Weight: 1,
		Pins: []netlist.Pin{
			{Cell: 0},
			{Cell: len(nl.Cells) - 1},
		},
	})
	sameSystem(t, "grown", a.Assemble(), Build(nl, Options{Linearize: true}))
}

func TestAssemblerSolvesLikeBuild(t *testing.T) {
	nl := assemblerNetlist(34)
	a := NewAssembler(nl, Options{Linearize: true})
	clone := nl.Clone()

	for round := 0; round < 3; round++ {
		sysA := a.Assemble()
		if _, err := sysA.Solve(nil, sparse.CGOptions{Tol: 1e-10}); err != nil {
			t.Fatalf("round %d: assembler solve: %v", round, err)
		}
		sysB := Build(clone, Options{Linearize: true})
		if _, err := sysB.Solve(nil, sparse.CGOptions{Tol: 1e-10}); err != nil {
			t.Fatalf("round %d: build solve: %v", round, err)
		}
		for ci := range nl.Cells {
			pa, pb := nl.Cells[ci].Pos, clone.Cells[ci].Pos
			if math.Abs(pa.X-pb.X) > 1e-6 || math.Abs(pa.Y-pb.Y) > 1e-6 {
				t.Fatalf("round %d: cell %d diverged: %v vs %v", round, ci, pa, pb)
			}
		}
	}
}

// TestRowCountsMatchAssembly: the first assembly reserves each builder row
// at rowCounts' size, so the counts must equal what assembleInto adds to
// every row. The fixture has pads on cliques and stars, and a two-pin net
// tying one cell to itself, whose AddSym adds a single diagonal.
func TestRowCountsMatchAssembly(t *testing.T) {
	nl := assemblerNetlist(33)
	var self int
	for nl.Cells[self].Fixed {
		self++
	}
	nl.Nets = append(nl.Nets, netlist.Net{Name: "self", Weight: 1, Pins: []netlist.Pin{
		{Cell: self}, {Cell: self, Offset: geom.Point{X: 0.5}},
	}})
	s := newSkeleton(nl, normalize(Options{Linearize: true}))
	counts := s.rowCounts()

	// grown counts the row reallocations of one assembly into a builder
	// reserved at the given sizes: its allocations beyond the builder's.
	grown := func(sizes []int) float64 {
		var b *sparse.Builder
		base := testing.AllocsPerRun(3, func() { b = sparse.NewBuilderSized(sizes) })
		full := testing.AllocsPerRun(3, func() {
			b = sparse.NewBuilderSized(sizes)
			s.assembleInto(b)
		})
		return full - base
	}
	// At the counted sizes no row grows; one entry short, every row grows
	// exactly once. Together they pin every count. (Every row counts at
	// least its diagonal: an anchor spring or a star center's.)
	if g := grown(counts); g != 0 {
		t.Errorf("%.0f rows outgrew their counted size", g)
	}
	short := make([]int, len(counts))
	for i, c := range counts {
		short[i] = c - 1
	}
	if g := grown(short); g != float64(len(counts)) {
		t.Errorf("one entry short per row, %.0f of %d rows grew: some count is too large", g, len(counts))
	}
}

// symbolicOracle assembles nl the way the assembler did before it kept a
// contribution map: replay assembleInto into a sparse.Builder and compact
// it with BuildSymbolic, which sums each entry in insertion order.
func symbolicOracle(nl *netlist.Netlist, opts Options) *System {
	s := newSkeleton(nl, normalize(opts))
	b := sparse.NewBuilderSized(s.rowCounts())
	s.assembleInto(b)
	s.C, _ = b.BuildSymbolic()
	return s
}

// bitIdentical fails unless got and want have the same pattern and the
// same C, Dx and Dy bit for bit.
func bitIdentical(t *testing.T, tag string, got, want *System) {
	t.Helper()
	if got.N() != want.N() || got.C.NNZ() != want.C.NNZ() {
		t.Fatalf("%s: N %d nnz %d, want N %d nnz %d", tag, got.N(), got.C.NNZ(), want.N(), want.C.NNZ())
	}
	for i := 0; i < got.N(); i++ {
		gc, gv := got.C.Row(i)
		wc, wv := want.C.Row(i)
		if len(gc) != len(wc) {
			t.Fatalf("%s: row %d has %d entries, want %d", tag, i, len(gc), len(wc))
		}
		for k := range gc {
			if gc[k] != wc[k] || math.Float64bits(gv[k]) != math.Float64bits(wv[k]) {
				t.Fatalf("%s: C[%d] entry %d = (%d, %v), want (%d, %v)", tag, i, k, gc[k], gv[k], wc[k], wv[k])
			}
		}
		if math.Float64bits(got.Dx[i]) != math.Float64bits(want.Dx[i]) ||
			math.Float64bits(got.Dy[i]) != math.Float64bits(want.Dy[i]) {
			t.Fatalf("%s: d[%d] = (%v, %v), want (%v, %v)", tag, i, got.Dx[i], got.Dy[i], want.Dx[i], want.Dy[i])
		}
	}
}

// TestTwoPassRefillBitIdentical: the contribution map's two passes give
// the system that replaying assembleInto into a Builder and BuildSymbolic
// give, bit for bit, on the first assembly and on every refill. The
// fixture mixes star nets (4+ pins) and clique nets (2–3 pins), pads on
// both, a two-pin net tying one cell to itself, a single-pin net and nets
// of zero weight, whose star centers take the unit diagonal.
func TestTwoPassRefillBitIdentical(t *testing.T) {
	for _, opts := range []Options{{}, {Linearize: true}} {
		nl := assemblerNetlist(35)
		var self int
		for nl.Cells[self].Fixed {
			self++
		}
		nl.Nets = append(nl.Nets,
			netlist.Net{Name: "self", Weight: 1, Pins: []netlist.Pin{
				{Cell: self}, {Cell: self, Offset: geom.Point{X: 0.5, Y: -0.25}},
			}},
			netlist.Net{Name: "lone", Weight: 1, Pins: []netlist.Pin{{Cell: self}}},
		)
		var stars, cliques, padNets int
		for ni := range nl.Nets {
			pins := nl.Nets[ni].Pins
			if len(pins) >= starMinPins {
				stars++
			} else if len(pins) >= 2 {
				cliques++
			}
			for _, p := range pins {
				if nl.Cells[p.Cell].Fixed {
					padNets++
					break
				}
			}
			if ni%9 == 0 {
				nl.Nets[ni].Weight = 0
			}
		}
		if stars == 0 || cliques == 0 || padNets == 0 {
			t.Fatalf("fixture lacks a net kind: %d stars, %d cliques, %d with pads", stars, cliques, padNets)
		}
		a := NewAssembler(nl, opts)
		tag := "linearize=" + map[bool]string{false: "false", true: "true"}[opts.Linearize]
		bitIdentical(t, tag+" first", a.Assemble(), symbolicOracle(nl, opts))
		for round := 0; round < 3; round++ {
			for ci := range nl.Cells {
				if !nl.Cells[ci].Fixed {
					nl.Cells[ci].Pos.X += float64((ci+round)%5) - 2
					nl.Cells[ci].Pos.Y += float64((ci*round)%3) - 1
				}
			}
			for ni := range nl.Nets {
				if ni%4 == round%4 {
					nl.Nets[ni].Weight = nl.Nets[ni].Weight*1.5 + 0.25
				}
			}
			bitIdentical(t, tag+" refill", a.Assemble(), symbolicOracle(nl, opts))
		}
	}
}

// TestTwoPassRefillSplitsAcrossLanes: with the lane threshold lowered so
// both passes fork, the refill is still bit-identical to the oracle, at
// every GOMAXPROCS.
func TestTwoPassRefillSplitsAcrossLanes(t *testing.T) {
	old := par.Threshold
	par.Threshold = 1
	defer func() { par.Threshold = old }()
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		nl := assemblerNetlist(36)
		a := NewAssembler(nl, Options{Linearize: true})
		if !a.Assemble().C.IsSymmetric(0) || !a.cm.fork {
			t.Fatal("the lowered threshold did not make the passes fork")
		}
		for ci := range nl.Cells {
			nl.Cells[ci].Pos.X += float64(ci % 7)
		}
		bitIdentical(t, "forked refill", a.Assemble(), symbolicOracle(nl, Options{Linearize: true}))
		runtime.GOMAXPROCS(prev)
	}
}

// TestRefillRebuildsOnPinCountChange: a net that gains a pin at constant
// cell and net counts no longer fits the recorded map; the assembler must
// notice and rebuild instead of writing into another net's slots.
func TestRefillRebuildsOnPinCountChange(t *testing.T) {
	nl := assemblerNetlist(37)
	a := NewAssembler(nl, Options{Linearize: true})
	a.Assemble()
	for ni := range nl.Nets {
		if len(nl.Nets[ni].Pins) == 2 {
			nl.Nets[ni].Pins = append(nl.Nets[ni].Pins, netlist.Pin{Cell: nl.Nets[ni].Pins[0].Cell ^ 1})
			break
		}
	}
	bitIdentical(t, "grown net", a.Assemble(), symbolicOracle(nl, Options{Linearize: true}))
}

// BenchmarkAssemble times one steady-state assembly of the netgen 2k
// design under linearization: the two contribution-map passes.
func BenchmarkAssemble(b *testing.B) {
	nl := netgen.Generate(netgen.Config{Name: "asm-2k", Cells: 2000, Nets: 2666, Rows: 16, Seed: 1})
	netgen.ScatterRandom(nl, 1)
	a := NewAssembler(nl, Options{Linearize: true})
	a.Assemble()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Assemble()
	}
}
