package place

import (
	"testing"

	"repro/internal/netgen"
)

// The §4.2 empty-square rule is the loop's own stop. These tests run the
// 2000-cell design perfbench's kplace-2k workload places (netgen seed 1,
// 2666 nets, 16 rows) and require the step control to get it there
// without sloshing; under the open-loop damping it ended on stagnation
// after 67 transformations, 36 of them in one alternating run.

func placeNetgen2k(t *testing.T) Result {
	t.Helper()
	if testing.Short() {
		t.Skip("2000-cell placement run")
	}
	nl := netgen.Generate(netgen.Config{Name: "bench-2k", Cells: 2000, Nets: 2666, Rows: 16, Seed: 1})
	res, err := Global(nl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNetgen2kStopsOnCriterion(t *testing.T) {
	res := placeNetgen2k(t)
	if res.StopReason != StopCriterion {
		t.Errorf("stopped on %q after %d transformations, want the §4.2 criterion", res.StopReason, res.Iterations)
	}
}

func TestNetgen2kOverflowDoesNotAlternate(t *testing.T) {
	res := placeNetgen2k(t)
	if n, end := longestAlternation(res.Trace); n > 10 {
		t.Errorf("the overflow change flips sign on %d consecutive transformations (the last is %d): the loop sloshes", n, end)
	}
}

// longestAlternation returns the longest run of consecutive
// transformations whose overflow change has the opposite sign of the
// previous transformation's, and the iteration that ends the run.
func longestAlternation(trace []IterStats) (n, end int) {
	run := 0
	for i := 2; i < len(trace); i++ {
		prev := trace[i-1].Overflow - trace[i-2].Overflow
		cur := trace[i].Overflow - trace[i-1].Overflow
		if prev*cur < 0 {
			run++
		} else {
			run = 0
		}
		if run > n {
			n, end = run, trace[i].Iter
		}
	}
	return n, end
}
