package place

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/netgen"
	"repro/internal/netlist"
)

// TestStepBitIdenticalAcrossWorkers runs the netgen 2k design (perfbench's
// kplace-2k circuit) to the §4.2 stop at GOMAXPROCS 1, 2 and 4. Every
// fork-join of the step splits fixed ranges, so every IterStats field but
// the phase times, and every final position, must agree bit for bit: at 1
// the lanes run inline, at 2 on the helper, at 4 with spare Ps competing.
func TestStepBitIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("places a 2000-cell design three times")
	}
	type run struct {
		trace []IterStats
		final netlist.Placement
	}
	place := func(procs int) run {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		nl := netgen.Generate(netgen.Config{Name: "bench-2k", Cells: 2000, Nets: 2666, Rows: 16, Seed: 1})
		res, err := Global(nl, Config{})
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		for i := range res.Trace {
			res.Trace[i].Phases = Phases{}
		}
		return run{res.Trace, nl.Snapshot()}
	}
	want := place(1)
	for _, procs := range []int{2, 4} {
		got := place(procs)
		if len(got.trace) != len(want.trace) {
			t.Fatalf("GOMAXPROCS %d: %d transformations, want %d", procs, len(got.trace), len(want.trace))
		}
		for i := range want.trace {
			if !sameStatBits(got.trace[i], want.trace[i]) {
				t.Fatalf("GOMAXPROCS %d: transformation %d\n got %+v\nwant %+v", procs, i, got.trace[i], want.trace[i])
			}
		}
		for ci := range want.final {
			g, w := got.final[ci], want.final[ci]
			if math.Float64bits(g.X) != math.Float64bits(w.X) || math.Float64bits(g.Y) != math.Float64bits(w.Y) {
				t.Fatalf("GOMAXPROCS %d: cell %d ends at %v, want %v", procs, ci, g, w)
			}
		}
	}
}

// sameStatBits compares two IterStats field by field, floats by their bits.
func sameStatBits(a, b IterStats) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Float64 {
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return false
			}
			continue
		}
		if !reflect.DeepEqual(fa.Interface(), fb.Interface()) {
			return false
		}
	}
	return true
}
