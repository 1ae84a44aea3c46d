package place

import (
	"testing"

	"repro/internal/netgen"
	"repro/internal/obsv"
)

// benchmarkStep measures one placement transformation in steady state.
// Comparing BenchmarkStep (no sinks attached) against a pre-observability
// checkout, and against BenchmarkStepObserved, bounds the cost of the
// instrumentation layer; with no sink attached the overhead must stay
// within noise (<2%).
func benchmarkStep(b *testing.B, cfg Config) {
	nl := netgen.Generate(netgen.Config{
		Name: "bench", Cells: 1000, Nets: 1300, Rows: 16, Seed: 7,
	})
	cfg.MaxIter = 1
	p := New(nl, cfg)
	if err := p.Initialize(); err != nil {
		b.Fatal(err)
	}
	// Warm the iteration past the all-at-center start so the measured
	// steps see a representative density distribution.
	for i := 0; i < 5; i++ {
		if _, err := p.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStep is the instrumentation-off baseline: no observer attached.
func BenchmarkStep(b *testing.B) {
	benchmarkStep(b, Config{})
}

// BenchmarkStepObserved attaches the one sink the placer offers: an
// OnIteration observer writing each transformation's trace record.
func BenchmarkStepObserved(b *testing.B) {
	tw := obsv.NewTraceWriter(discard{})
	benchmarkStep(b, Config{
		OnIteration: func(s IterStats) { _ = tw.Write(s) },
	})
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
