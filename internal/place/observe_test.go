package place

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"testing"
	"time"
)

// TestObserverConsistency checks the observability contract: the stats
// delivered to OnIteration are exactly the Result.Trace entries, and the
// per-phase durations are positive and consistent with the iteration
// wall time.
func TestObserverConsistency(t *testing.T) {
	nl := testCircuit(t, 200, 4)
	var observed []IterStats
	res, err := Global(nl, Config{
		MaxIter:     40,
		OnIteration: func(s IterStats) { observed = append(observed, s) },
	})
	if err != nil {
		t.Fatalf("Global: %v", err)
	}
	if len(observed) != len(res.Trace) || len(observed) != res.Iterations {
		t.Fatalf("observer saw %d iterations, trace has %d, result says %d",
			len(observed), len(res.Trace), res.Iterations)
	}
	for i := range observed {
		if observed[i] != res.Trace[i] {
			t.Fatalf("iteration %d: observer stats %+v != trace entry %+v",
				i, observed[i], res.Trace[i])
		}
	}
	for i, s := range observed {
		if s.TStep <= 0 {
			t.Fatalf("iteration %d: TStep = %v, want > 0", i, s.TStep)
		}
		// Every phase but weight (no BeforeTransform hook) is timed, and
		// the phases are sequential (the x/y solves are one concurrent
		// pair), so they sum to at most the step wall time.
		var sum time.Duration
		s.Phases.Each(func(k string, d time.Duration) {
			if k == "step" {
				return
			}
			if d <= 0 && k != "weight" {
				t.Fatalf("iteration %d: phase %s duration = %v, want > 0", i, k, d)
			}
			sum += d
		})
		if sum > s.TStep {
			t.Fatalf("iteration %d: phase sum %v exceeds step wall time %v", i, sum, s.TStep)
		}
		if s.CGResidX < 0 || s.CGResidY < 0 {
			t.Fatalf("iteration %d: negative residuals %g %g", i, s.CGResidX, s.CGResidY)
		}
	}
	// The run-level phase totals must equal the trace sums.
	var want Phases
	for _, s := range res.Trace {
		want.Add(s.Phases)
	}
	if res.Phases != want {
		t.Fatalf("Result.Phases %+v != trace sum %+v", res.Phases, want)
	}
}

func TestNoTraceSuppressesTrace(t *testing.T) {
	nl := testCircuit(t, 150, 5)
	calls := 0
	res, err := Global(nl, Config{
		MaxIter:     25,
		NoTrace:     true,
		OnIteration: func(IterStats) { calls++ },
	})
	if err != nil {
		t.Fatalf("Global: %v", err)
	}
	if len(res.Trace) != 0 {
		t.Fatalf("NoTrace left %d trace entries", len(res.Trace))
	}
	if res.Iterations == 0 || calls != res.Iterations {
		t.Fatalf("aggregates must survive NoTrace: iterations %d, observer calls %d",
			res.Iterations, calls)
	}
	if res.Phases.TStep <= 0 {
		t.Fatal("Result.Phases must be filled with NoTrace set")
	}
	if res.HPWL <= 0 {
		t.Fatal("Result.HPWL must be filled with NoTrace set")
	}
}

// TestPhaseSchema pins the phase schema derived from Phases: the trace
// record's keys and their order, the PhaseKeys names, and that Each and Add
// visit every field in declaration order.
func TestPhaseSchema(t *testing.T) {
	raw, err := json.Marshal(IterStats{})
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	var keys []string
	for isKey := false; ; {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		// The record is flat, so after the opening brace the tokens
		// alternate key, value.
		if _, delim := tok.(json.Delim); delim {
			isKey = true
			continue
		}
		if isKey {
			keys = append(keys, tok.(string))
		}
		isKey = !isKey
	}
	wantKeys := []string{
		"iter", "hpwl", "overflow", "empty_square", "gap_proxy", "max_force",
		"cg_iter_x", "cg_iter_y", "cg_resid_x", "cg_resid_y", "precond", "precond_fallback",
		"damping", "backoff",
		"t_weight_ns", "t_gather_ns", "t_field_ns", "t_build_ns", "t_precond_ns", "t_solve_pair_ns", "t_finish_ns", "t_step_ns",
	}
	if !reflect.DeepEqual(keys, wantKeys) {
		t.Errorf("trace record keys %q, want %q", keys, wantKeys)
	}
	wantPhases := []string{"weight", "gather", "field", "build", "precond", "solve-pair", "finish", "step"}
	if got := PhaseKeys(); !reflect.DeepEqual(got, wantPhases) {
		t.Errorf("PhaseKeys() = %q, want %q", got, wantPhases)
	}

	var p Phases
	v := reflect.ValueOf(&p).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(i + 1))
	}
	p.Add(p)
	i := 0
	p.Each(func(k string, d time.Duration) {
		if k != wantPhases[i] || d != time.Duration(2*(i+1)) {
			t.Errorf("Each visit %d: %s=%d, want %s=%d after Add", i, k, d, wantPhases[i], 2*(i+1))
		}
		i++
	})
	if i != len(wantPhases) {
		t.Errorf("Each visited %d phases, want %d", i, len(wantPhases))
	}
}
