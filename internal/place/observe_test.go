package place

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obsv"
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
		for name, d := range map[string]time.Duration{
			"gather": s.TGather, "field": s.TField, "build": s.TBuild,
			"solve-x": s.TSolveX, "solve-y": s.TSolveY,
		} {
			if d <= 0 {
				t.Fatalf("iteration %d: phase %s duration = %v, want > 0", i, name, d)
			}
		}
		// The x/y solves run concurrently, so the sequential phases plus
		// the slower solve bound the step wall time from below.
		solve := s.TSolveX
		if s.TSolveY > solve {
			solve = s.TSolveY
		}
		if sum := s.TWeight + s.TGather + s.TField + s.TBuild + solve; sum > s.TStep {
			t.Fatalf("iteration %d: phase sum %v exceeds step wall time %v", i, sum, s.TStep)
		}
		if s.CGResidX < 0 || s.CGResidY < 0 {
			t.Fatalf("iteration %d: negative residuals %g %g", i, s.CGResidX, s.CGResidY)
		}
	}
	// The run-level phase totals must equal the trace sums.
	var want PhaseTotals
	for _, s := range res.Trace {
		want.add(s)
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
	if res.Phases.Step <= 0 {
		t.Fatal("Result.Phases must be filled with NoTrace set")
	}
	if res.HPWL <= 0 {
		t.Fatal("Result.HPWL must be filled with NoTrace set")
	}
}

func TestSpansAndMetricsSinks(t *testing.T) {
	nl := testCircuit(t, 150, 6)
	spans := obsv.NewSpans()
	reg := obsv.NewRegistry()
	res, err := Global(nl, Config{MaxIter: 20, Spans: spans, Metrics: reg})
	if err != nil {
		t.Fatalf("Global: %v", err)
	}
	for _, phase := range []string{
		"place/gather", "place/field", "place/build",
		"place/solve-x", "place/solve-y", "place/step",
	} {
		st := spans.Get(phase)
		if st.Count != int64(res.Iterations) {
			t.Errorf("span %q recorded %d times, want %d", phase, st.Count, res.Iterations)
		}
		if st.Total <= 0 {
			t.Errorf("span %q total = %v, want > 0", phase, st.Total)
		}
	}
	if got := reg.Counter("place_transformations_total", "").Value(); got != int64(res.Iterations) {
		t.Errorf("place_transformations_total = %d, want %d", got, res.Iterations)
	}
	if got := reg.Gauge("place_hpwl", "").Value(); got != res.HPWL {
		t.Errorf("place_hpwl gauge = %g, want %g", got, res.HPWL)
	}
}

// TestPhaseSchema holds the phase surfaces to one list: PhaseKeys is the
// IterStats t_<phase>_ns tags in declaration order, and PhaseTotals has one
// field per phase, in the same order, that add fills from its IterStats
// field.
func TestPhaseSchema(t *testing.T) {
	var keys, fields []string
	st := reflect.TypeOf(IterStats{})
	for i := 0; i < st.NumField(); i++ {
		tag := strings.Split(st.Field(i).Tag.Get("json"), ",")[0]
		if !strings.HasPrefix(tag, "t_") || !strings.HasSuffix(tag, "_ns") {
			continue
		}
		phase := strings.TrimSuffix(strings.TrimPrefix(tag, "t_"), "_ns")
		keys = append(keys, strings.ReplaceAll(phase, "_", "-"))
		fields = append(fields, st.Field(i).Name)
	}
	if got := PhaseKeys(); !reflect.DeepEqual(got, keys) {
		t.Errorf("PhaseKeys() = %q, IterStats t_*_ns tags give %q", got, keys)
	}

	tt := reflect.TypeOf(PhaseTotals{})
	if tt.NumField() != len(fields) {
		t.Fatalf("PhaseTotals has %d fields, IterStats has %d phases", tt.NumField(), len(fields))
	}
	var s IterStats
	for i, name := range fields {
		reflect.ValueOf(&s).Elem().FieldByName(name).SetInt(int64(i + 1))
	}
	var tot PhaseTotals
	tot.add(s)
	for i, name := range fields {
		want := strings.TrimPrefix(name, "T")
		if got := tt.Field(i).Name; got != want {
			t.Errorf("PhaseTotals field %d is %s, want %s to mirror IterStats.%s", i, got, want, name)
			continue
		}
		if got := reflect.ValueOf(tot).Field(i).Int(); got != int64(i+1) {
			t.Errorf("PhaseTotals.add puts %d into %s, want IterStats.%s = %d", got, want, name, i+1)
		}
	}
}
