package qp

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/netgen"
	"repro/internal/sparse"
)

// solvePrecondCircuit solves a 400-cell design once from its initial
// placement and returns the cell positions. With broken, the system's
// cached factor is marked as broken down before the solve, the one route
// to the Jacobi fallback.
func solvePrecondCircuit(t *testing.T, broken bool) ([]geom.Point, SolveResult) {
	t.Helper()
	nl := netgen.Generate(netgen.Config{Name: "pc", Cells: 400, Nets: 520, Rows: 8, Seed: 61})
	sys := Build(nl, Options{})
	if broken {
		sys.chol = sparse.NewIC0Pattern(sys.C)
		sys.cholBroken, sys.cholDirty = true, false
	}
	res, err := sys.Solve(nil, sparse.CGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]geom.Point, len(nl.Cells))
	for ci := range nl.Cells {
		pos[ci] = nl.Cells[ci].Pos
	}
	return pos, res
}

// TestIC0SolveMatchesJacobiSolution: the IC0 factor must cut the CG
// iterations of the same solve against Jacobi (TestFactorBreakdownFallsBack
// checks that both reach the same placement), and the concurrent pair's
// wall time must be recorded.
func TestIC0SolveMatchesJacobiSolution(t *testing.T) {
	_, jres := solvePrecondCircuit(t, true)
	_, cres := solvePrecondCircuit(t, false)
	if jres.X.Precond != sparse.Jacobi || cres.X.Precond != sparse.IC0 {
		t.Fatalf("applied preconditioners: %v / %v", jres.X.Precond, cres.X.Precond)
	}
	if cres.X.Iterations >= jres.X.Iterations {
		t.Errorf("IC0 x solve took %d iterations, Jacobi %d — preconditioner had no effect",
			cres.X.Iterations, jres.X.Iterations)
	}
	if cres.PairWall <= 0 {
		t.Errorf("PairWall %v, want the concurrent pair's wall time", cres.PairWall)
	}
}

// TestFactorBreakdownFallsBack: when the cached factor broke down, both
// axes solve with Jacobi, the result says so, and the solve still
// converges to the placement the IC0 solve reaches.
func TestFactorBreakdownFallsBack(t *testing.T) {
	jpos, jres := solvePrecondCircuit(t, true)
	cpos, cres := solvePrecondCircuit(t, false)
	if !jres.Fallback || jres.X.Precond != sparse.Jacobi || jres.Y.Precond != sparse.Jacobi {
		t.Fatalf("broken factor: fallback %v, applied %v/%v, want jacobi on both axes",
			jres.Fallback, jres.X.Precond, jres.Y.Precond)
	}
	if cres.Fallback {
		t.Fatal("a sound factor reported a fallback")
	}
	if !jres.X.Converged || !jres.Y.Converged {
		t.Fatalf("fallback solve did not converge: x %+v, y %+v", jres.X, jres.Y)
	}
	for ci := range jpos {
		d := jpos[ci].Sub(cpos[ci]).Norm()
		if d > 1e-6*math.Max(1, cpos[ci].Norm()) {
			t.Fatalf("cell %d: jacobi %v vs ic0 %v", ci, jpos[ci], cpos[ci])
		}
	}
}

// TestRefilledFactorMatchesFreshAssembler: after a refill through the
// cached pattern, the system's cached IC0 factor must make the solves
// bit-identical to a brand-new assembler at the same netlist state —
// the refill-vs-fresh-factor determinism contract.
func TestRefilledFactorMatchesFreshAssembler(t *testing.T) {
	opts := Options{Linearize: true}
	cg := sparse.CGOptions{Tol: 1e-8}

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
	// sequence → bit-identical CSR (a refill sums like a first assembly) → the fresh
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
	cg := sparse.CGOptions{Tol: 1e-8}
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
