package main

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/netgen"
)

// TestDeterministic runs both workload shapes on a small circuit twice at
// the default GOMAXPROCS and once at GOMAXPROCS=1. The numbers the
// benchmark treats as exact must agree to the bit every time, and each run
// must report exactly the metrics BENCHMARK.json declares.
func TestDeterministic(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	small := netgen.Config{Name: "test", Cells: 500, Nets: 660, Rows: 8, Seed: 3}
	for _, w := range []workload{
		{name: "kplace", gen: small},
		{name: "eco", gen: small, eco: true},
	} {
		t.Run(w.name, func(t *testing.T) {
			exact := func() map[string]float64 {
				rep := run(w, 7, 0, true)
				if rep.failed > 0 {
					t.Fatalf("%d of %d operations failed: %v", rep.failed, rep.attempted, rep.failures)
				}
				if _, err := selectMetrics(sp.EndToEnd, rep.endToEnd); err != nil {
					t.Fatalf("end-to-end metrics: %v", err)
				}
				if _, err := selectMetrics(sp.PerLayer, rep.layers); err != nil {
					t.Fatalf("per-layer metrics: %v", err)
				}
				out := map[string]float64{"hpwl": rep.endToEnd["hpwl"]}
				for _, k := range []string{"place.iterations", "sparse.cg_iters", "qp.nnz", "sparse.probe_cg_iters"} {
					out[k] = rep.layers[k]
				}
				return out
			}
			first := exact()
			if again := exact(); !reflect.DeepEqual(first, again) {
				t.Errorf("second run differs:\n got %v\nwant %v", again, first)
			}
			prev := runtime.GOMAXPROCS(1)
			single := exact()
			runtime.GOMAXPROCS(prev)
			if !reflect.DeepEqual(first, single) {
				t.Errorf("GOMAXPROCS=1 differs from GOMAXPROCS=%d:\n got %v\nwant %v", prev, single, first)
			}
		})
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
