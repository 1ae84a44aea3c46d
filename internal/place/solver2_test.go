package place

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/sparse"
)

// TestIC0CutsCGIterations: every transformation of a run solves with
// the IC0 factor, and on the run's final system that factor converges in
// fewer CG iterations than the diagonal (Jacobi) preconditioner would.
func TestIC0CutsCGIterations(t *testing.T) {
	nl := warmNetlist(56)
	p := New(nl, Config{MaxIter: 40})
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no trace rows")
	}
	for _, s := range res.Trace {
		if s.Precond != sparse.IC0 || s.PrecondFallback {
			t.Fatalf("iter %d solved with %v (fallback %v), want ic0", s.Iter, s.Precond, s.PrecondFallback)
		}
	}
	sys := p.asm.Assemble()
	f := sparse.NewIC0(sys.Matrix())
	if f == nil {
		t.Fatal("IC0 factorization of the final system broke down")
	}
	rng := rand.New(rand.NewSource(56))
	b := make([]float64, sys.N())
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	solve := func(f *sparse.IC0Factor) int {
		x := make([]float64, sys.N())
		r, err := sparse.SolveCG(sys.Matrix(), x, b, sparse.CGOptions{Tol: 1e-6, Factor: f})
		if err != nil {
			t.Fatal(err)
		}
		return r.Iterations
	}
	if ic0, jacobi := solve(f), solve(nil); ic0 >= jacobi {
		t.Errorf("CG iterations: ic0 %d vs jacobi %d — no reduction", ic0, jacobi)
	}
}

// TestSolvePairPhaseAccounting: the solve_pair phase must be populated on
// every traced transformation and obey its documented bounds — positive
// and within the whole step. qp's TestSolvePairWallBoundsAxes checks that
// it covers both axis solves.
func TestSolvePairPhaseAccounting(t *testing.T) {
	nl := warmNetlist(57)
	res, err := Global(nl, Config{MaxIter: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no trace rows")
	}
	for _, s := range res.Trace {
		if s.TSolvePair <= 0 {
			t.Fatalf("iter %d: TSolvePair %v not positive", s.Iter, s.TSolvePair)
		}
		if s.TSolvePair > s.TStep {
			t.Fatalf("iter %d: pair wall %v exceeds step %v", s.Iter, s.TSolvePair, s.TStep)
		}
	}
	if res.Phases.TSolvePair <= 0 || res.Phases.TSolvePair > res.Phases.TStep {
		t.Fatalf("Result.Phases.TSolvePair %v out of range (step total %v)",
			res.Phases.TSolvePair, res.Phases.TStep)
	}
}
