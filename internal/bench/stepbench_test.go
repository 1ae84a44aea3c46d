package bench

import (
	"strings"
	"testing"
	"time"

	"repro/internal/place"
)

// stepDoc is a one-row step document whose hot run took stepNS over iters
// transformations.
func stepDoc(cells, iters int, stepNS int64) StepBench {
	return StepBench{Rows: []StepRow{{
		Cells: cells,
		Hot:   StepRun{Iterations: iters, Phases: place.Phases{TStep: time.Duration(stepNS)}},
	}}}
}

func TestCheckStepRegression(t *testing.T) {
	// Baseline: 40 iterations at 10 ms each.
	base := stepDoc(10000, 40, 400e6)
	for _, tc := range []struct {
		name    string
		cur     StepBench
		wantErr string // "" = pass
	}{
		// 8 iterations at 11.5 ms: +15%, inside the +20% budget.
		{"within budget", stepDoc(10000, 8, 92e6), ""},
		// 8 iterations at 12.5 ms: +25%.
		{"over budget", stepDoc(10000, 8, 100e6), "regressed"},
		{"missing row", stepDoc(2000, 8, 80e6), "no 10000-cell row"},
		{"zero iterations", stepDoc(10000, 0, 80e6), "positive iterations"},
		{"zero step_ns", stepDoc(10000, 8, 0), "positive iterations"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := CheckStepRegression(tc.cur, base, 10000, 0.20)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("passed, want an error containing %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}
