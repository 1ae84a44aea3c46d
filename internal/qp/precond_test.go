package qp

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/netgen"
	"repro/internal/sparse"
)

// TestIC0SolveMatchesJacobiSolution: both preconditioners solve the same
// system to the same tolerance, so the placements they produce must agree
// within the solve tolerance.
func TestIC0SolveMatchesJacobiSolution(t *testing.T) {
	opt := func(p sparse.Preconditioner) sparse.CGOptions {
		return sparse.CGOptions{Tol: 1e-10, Precond: p}
	}
	run := func(p sparse.Preconditioner) ([]geom.Point, SolveResult) {
		nl := netgen.Generate(netgen.Config{Name: "pc", Cells: 400, Nets: 520, Rows: 8, Seed: 61})
		sys := Build(nl, Options{})
		res, err := sys.Solve(nil, opt(p))
		if err != nil {
			t.Fatal(err)
		}
		pos := make([]geom.Point, len(nl.Cells))
		for ci := range nl.Cells {
			pos[ci] = nl.Cells[ci].Pos
		}
		return pos, res
	}
	jpos, jres := run(sparse.Jacobi)
	cpos, cres := run(sparse.IC0)
	if jres.X.Precond != sparse.Jacobi || cres.X.Precond != sparse.IC0 {
		t.Fatalf("effective preconditioners: %v / %v", jres.X.Precond, cres.X.Precond)
	}
	diag := 0.0
	for ci := range jpos {
		diag = math.Max(diag, math.Max(math.Abs(jpos[ci].X), math.Abs(jpos[ci].Y)))
	}
	for ci := range jpos {
		if d := jpos[ci].Sub(cpos[ci]).Norm(); d > 1e-5*(1+diag) {
			t.Fatalf("cell %d: jacobi %v vs ic0 %v", ci, jpos[ci], cpos[ci])
		}
	}
	if cres.X.Iterations >= jres.X.Iterations {
		t.Errorf("IC0 x solve took %d iterations, Jacobi %d — preconditioner had no effect",
			cres.X.Iterations, jres.X.Iterations)
	}
	// The concurrent pair's wall time must be recorded and bounded by the
	// per-axis sum.
	if cres.PairWall <= 0 || cres.PairWall > cres.X.Elapsed+cres.Y.Elapsed+cres.PairWall/2 {
		t.Errorf("PairWall %v implausible vs X %v + Y %v", cres.PairWall, cres.X.Elapsed, cres.Y.Elapsed)
	}
}

// TestRefilledFactorMatchesFreshAssembler: after a refill through the
// cached pattern, the system's cached IC0 factor must make the solves
// bit-identical to a brand-new assembler at the same netlist state —
// the refill-vs-fresh-factor determinism contract.
func TestRefilledFactorMatchesFreshAssembler(t *testing.T) {
	opts := Options{Linearize: true}
	cg := sparse.CGOptions{Tol: 1e-8, Precond: sparse.IC0}

	nl := netgen.Generate(netgen.Config{Name: "rf", Cells: 300, Nets: 380, Rows: 8, Seed: 62})
	a := NewAssembler(nl, opts)
	sys := a.Assemble()
	if _, err := sys.Solve(nil, cg); err != nil { // primes pattern + factor
		t.Fatal(err)
	}
	// Perturb positions (changes linearized weights), refill, re-solve.
	for ci := range nl.Cells {
		if !nl.Cells[ci].Fixed {
			nl.Cells[ci].Pos.X += float64(ci%7) - 3
			nl.Cells[ci].Pos.Y += float64(ci%5) - 2
		}
	}
	snap := nl.Snapshot()
	sys = a.Assemble() // numeric refill; factor refreshes lazily on solve
	resRefill, err := sys.Solve(nil, cg)
	if err != nil {
		t.Fatal(err)
	}
	refilled := make([]geom.Point, len(nl.Cells))
	for ci := range nl.Cells {
		refilled[ci] = nl.Cells[ci].Pos
	}

	// Fresh assembler at the identical pre-solve state: same insertion
	// sequence → bit-identical CSR (Symbolic.Refill contract) → the fresh
	// factor and cached refactored factor are bit-identical → so are the
	// solves.
	nl.Restore(snap)
	fresh := NewAssembler(nl, opts).Assemble()
	resFresh, err := fresh.Solve(nil, cg)
	if err != nil {
		t.Fatal(err)
	}
	for ci := range nl.Cells {
		if nl.Cells[ci].Pos != refilled[ci] {
			t.Fatalf("cell %d: refill-path %v vs fresh-path %v", ci, refilled[ci], nl.Cells[ci].Pos)
		}
	}
	if resRefill.X.Iterations != resFresh.X.Iterations || resRefill.Y.Iterations != resFresh.Y.Iterations {
		t.Fatalf("iteration counts diverge: refill (%d,%d) vs fresh (%d,%d)",
			resRefill.X.Iterations, resRefill.Y.Iterations, resFresh.X.Iterations, resFresh.Y.Iterations)
	}
	if resRefill.X.Precond != sparse.IC0 || resFresh.X.Precond != sparse.IC0 {
		t.Fatalf("expected ic0 on both paths, got %v / %v", resRefill.X.Precond, resFresh.X.Precond)
	}
}

// TestFullSkipKeepsFactorValid: the assembler's full-skip path returns the
// cached system untouched; its factor must stay valid (no refactor, same
// solve) rather than being invalidated by the skipped assembly.
func TestFullSkipKeepsFactorValid(t *testing.T) {
	cg := sparse.CGOptions{Tol: 1e-8, Precond: sparse.IC0}
	nl := netgen.Generate(netgen.Config{Name: "fs", Cells: 200, Nets: 260, Rows: 6, Seed: 63})
	a := NewAssembler(nl, Options{}) // no linearization: skippable
	sys := a.Assemble()
	if _, err := sys.SolveDelta(nil, cg); err != nil {
		t.Fatal(err)
	}
	if sys.cholDirty {
		t.Fatal("factor still dirty after a solve")
	}
	// Move cells; Assemble takes the full-skip path (same system pointer),
	// and the factor must not be marked dirty by it.
	for ci := range nl.Cells {
		if !nl.Cells[ci].Fixed {
			nl.Cells[ci].Pos.X += 2
		}
	}
	if got := a.Assemble(); got != sys {
		t.Fatal("expected the full-skip path")
	}
	if sys.cholDirty {
		t.Fatal("full skip invalidated the cached factor")
	}
	if _, err := sys.SolveDelta(nil, cg); err != nil {
		t.Fatal(err)
	}
}

// TestAutoResolvesBySystemSize: Auto must pick Jacobi for small systems
// without ever building a factor. It counts movable cells, not unknowns:
// the 4000-cell design's star centers lift it past AutoIC0Threshold
// unknowns, and it stays on Jacobi.
func TestAutoResolvesBySystemSize(t *testing.T) {
	for _, cfg := range []netgen.Config{
		{Name: "au", Cells: 150, Nets: 200, Rows: 6, Seed: 64},
		{Name: "ac", Cells: 4000, Nets: 5400, Rows: 20, Seed: 65},
	} {
		sys := Build(netgen.Generate(cfg), Options{})
		if cfg.Cells == 4000 && sys.N() < sparse.AutoIC0Threshold {
			t.Fatalf("%d cells give %d unknowns, want ≥ %d", cfg.Cells, sys.N(), sparse.AutoIC0Threshold)
		}
		res, err := sys.Solve(nil, sparse.CGOptions{Precond: sparse.Auto})
		if err != nil {
			t.Fatal(err)
		}
		if res.X.Precond != sparse.Jacobi || res.Y.Precond != sparse.Jacobi {
			t.Fatalf("Auto on %d cells (%d unknowns) resolved to %v/%v", len(sys.CellOf), sys.N(), res.X.Precond, res.Y.Precond)
		}
		if sys.chol != nil {
			t.Fatal("Auto built an IC0 factor below the threshold")
		}
	}
}
