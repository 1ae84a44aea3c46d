package qp

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/netgen"
	"repro/internal/netlist"
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
