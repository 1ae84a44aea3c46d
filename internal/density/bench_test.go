package density

import (
	"testing"

	"repro/internal/netgen"
	"repro/internal/netlist"
)

// benchGrid scatters the netgen 5k design (perfbench's kplace-5k circuit)
// over a 128×128 grid, about the bin count the placer picks for it, and
// accumulates it once.
func benchGrid() (*Grid, *netlist.Netlist) {
	nl := netgen.Generate(netgen.Config{Name: "bench", Cells: 5000, Nets: 6666, Rows: 24, Seed: 1})
	netgen.ScatterRandom(nl, 1)
	g := NewGrid(nl.Region.Outline, 128, 128)
	g.Accumulate(nl)
	return g, nl
}

// BenchmarkDensity times the density stages of one placement
// transformation: the full demand accumulation that ends it, the Refresh
// that starts the next one on unmoved cells, and the force-field solve
// into a held Field, the placer's field path.
func BenchmarkDensity(b *testing.B) {
	b.Run("accumulate", func(b *testing.B) {
		g, nl := benchGrid()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.Accumulate(nl)
		}
	})
	b.Run("refresh", func(b *testing.B) {
		g, nl := benchGrid()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.Refresh(nl)
		}
	})
	b.Run("field", func(b *testing.B) {
		g, _ := benchGrid()
		f := ComputeFieldInto(nil, g, Auto) // builds the solver cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f = ComputeFieldInto(f, g, Auto)
		}
	})
}
