package place

import (
	"math"
	"testing"

	"repro/internal/sparse"
)

// TestIC0CutsCGIterations compares total CG work across a run. The IC0
// engine must converge each solve in fewer iterations than Jacobi, and the
// placement it reaches must be of the same quality.
func TestIC0CutsCGIterations(t *testing.T) {
	run := func(p sparse.Preconditioner) (total int, res Result) {
		nl := warmNetlist(56)
		res, err := Global(nl, Config{
			MaxIter: 40,
			CG:      sparse.CGOptions{Precond: p},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range res.Trace {
			total += s.CGIterX + s.CGIterY
		}
		return total, res
	}
	jIters, jRes := run(sparse.Jacobi)
	cIters, cRes := run(sparse.IC0)
	if cIters >= jIters {
		t.Errorf("total CG iterations: ic0 %d vs jacobi %d — no reduction", cIters, jIters)
	}
	if d := math.Abs(cRes.HPWL - jRes.HPWL); d > 0.15*jRes.HPWL {
		t.Errorf("HPWL: ic0 %g vs jacobi %g", cRes.HPWL, jRes.HPWL)
	}
	if d := math.Abs(cRes.Overflow - jRes.Overflow); d > 0.05 {
		t.Errorf("overflow: ic0 %g vs jacobi %g", cRes.Overflow, jRes.Overflow)
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
