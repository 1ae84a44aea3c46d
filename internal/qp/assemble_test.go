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

func assemblerNetlist(seed int64) *netlist.Netlist {
	return netgen.Generate(netgen.Config{
		Name: "asm", Cells: 60, Nets: 80, Rows: 4, Seed: seed,
	})
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

func TestAssemblerMatchesBuildAcrossChanges(t *testing.T) {
	for _, opts := range []Options{
		{},
		{Linearize: true},
	} {
		nl := assemblerNetlist(31)
		a := NewAssembler(nl, opts)
		bitIdentical(t, "initial", a.Assemble(), Build(nl, opts))

		// Move every cell (changes linearized weights).
		for ci := range nl.Cells {
			if !nl.Cells[ci].Fixed {
				nl.Cells[ci].Pos.X += float64(ci%5) - 2
				nl.Cells[ci].Pos.Y += float64(ci%3) - 1
			}
		}
		bitIdentical(t, "after move", a.Assemble(), Build(nl, opts))

		// Re-weight some nets (timing-driven placement does this).
		for ni := range nl.Nets {
			if ni%4 == 0 {
				nl.Nets[ni].Weight *= 2.5
			}
		}
		bitIdentical(t, "after reweight", a.Assemble(), Build(nl, opts))
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
	bitIdentical(t, "skip", s2, Build(nl, Options{}))

	// A weight change must break the skip.
	nl.Nets[0].Weight *= 3
	s3 := a.Assemble()
	bitIdentical(t, "post-reweight", s3, Build(nl, Options{}))
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
	bitIdentical(t, "grown", a.Assemble(), Build(nl, Options{Linearize: true}))
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

// TestTwoPassRefillBitIdentical: every refill through the contribution map
// gives, bit for bit, the system a fresh Build of the same netlist state
// gives. The
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
		bitIdentical(t, tag+" first", a.Assemble(), Build(nl, opts))
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
			bitIdentical(t, tag+" refill", a.Assemble(), Build(nl, opts))
		}
	}
}

// TestTwoPassRefillSplitsAcrossLanes: with the lane threshold lowered so
// both passes fork, the refill is still bit-identical to a fresh Build, at
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
		bitIdentical(t, "forked refill", a.Assemble(), Build(nl, Options{Linearize: true}))
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
	bitIdentical(t, "grown net", a.Assemble(), Build(nl, Options{Linearize: true}))
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
