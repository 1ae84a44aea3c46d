package qp

import (
	"math"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/netgen"
	"repro/internal/netlist"
	"repro/internal/sparse"
)

func starCircuit(t *testing.T) *netlist.Netlist {
	t.Helper()
	b := netlist.NewBuilder("star", geom.Region{Outline: geom.NewRect(0, 0, 20, 20)})
	b.AddPad("p0", geom.Point{X: 0, Y: 10})
	b.AddPad("p1", geom.Point{X: 20, Y: 10})
	for _, n := range []string{"a", "c", "d", "e"} {
		b.AddCell(n, 1, 1)
	}
	b.Connect("wide", "p0", "a", "c", "d", "e", "p1")
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

func TestStarModelSolves(t *testing.T) {
	nl := starCircuit(t)
	sys := Build(nl, Options{Model: Star})
	if !sys.Matrix().IsSymmetric(1e-12) {
		t.Error("star matrix asymmetric")
	}
	if _, err := sys.Solve(nil, sparse.CGOptions{Tol: 1e-10}); err != nil {
		t.Fatal(err)
	}
	// All movable cells pulled between the pads: x within the span.
	for i := 2; i < 6; i++ {
		x := nl.Cells[i].Pos.X
		if x < 0 || x > 20 {
			t.Errorf("cell %d at x=%v", i, x)
		}
	}
}

func TestStarMatrixIsSparserThanClique(t *testing.T) {
	nl := netgen.Generate(netgen.Config{Name: "sp", Cells: 500, Nets: 600, Rows: 8, Seed: 121})
	clique := Build(nl, Options{Model: Clique}).Matrix().NNZ()
	star := Build(nl, Options{Model: Star}).Matrix().NNZ()
	if star >= clique {
		t.Errorf("star NNZ %d not below clique NNZ %d", star, clique)
	}
}

func TestHybridSwitchesByDegree(t *testing.T) {
	nl := starCircuit(t) // one 6-pin net
	hyLow := Build(nl, Options{Model: Hybrid, HybridThreshold: 3})
	hyHigh := Build(nl, Options{Model: Hybrid, HybridThreshold: 30})
	clique := Build(nl, Options{Model: Clique})
	if hyHigh.Matrix().NNZ() != clique.Matrix().NNZ() {
		t.Error("hybrid above threshold should equal clique")
	}
	if hyLow.Matrix().NNZ() >= clique.Matrix().NNZ() {
		t.Error("hybrid below threshold should be sparser")
	}
}

func TestStarAndCliqueAgreeAtEquilibrium(t *testing.T) {
	// For a symmetric configuration, both models put the cells at the
	// centroid of the pads.
	nl := starCircuit(t)
	solve := func(m NetModel) float64 {
		c := nl.Clone()
		// The star centroid is quasi-static (refreshed per rebuild), so
		// iterate Build+Solve to its fixed point, exactly as the placer's
		// iteration does.
		for i := 0; i < 12; i++ {
			sys := Build(c, Options{Model: m})
			if _, err := sys.Solve(nil, sparse.CGOptions{Tol: 1e-12}); err != nil {
				t.Fatal(err)
			}
		}
		return c.Cells[2].Pos.X
	}
	xc := solve(Clique)
	xs := solve(Star)
	if math.Abs(xc-10) > 0.2 || math.Abs(xs-10) > 0.2 {
		t.Errorf("equilibria: clique %v star %v, want ~10", xc, xs)
	}
}

func TestTwoPinNetsNeverUseStar(t *testing.T) {
	b := netlist.NewBuilder("two", geom.NewRegion(1, 1, 10))
	b.AddPad("p", geom.Point{X: 0, Y: 0.5})
	b.AddCell("a", 1, 1)
	b.Connect("n", "p", "a")
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	star := Build(nl, Options{Model: Star})
	clique := Build(nl, Options{Model: Clique})
	if star.Matrix().NNZ() != clique.Matrix().NNZ() {
		t.Error("2-pin net should use the direct edge under any model")
	}
	if math.Abs(star.Dx[0]-clique.Dx[0]) > 1e-12 {
		t.Error("2-pin star/clique d mismatch")
	}
}

// TestNetModelParseAndText: every model round-trips through its tag,
// through ParseNetModel and through MarshalText/UnmarshalText; "" is the
// paper's Clique, and an unknown tag is rejected with the choices listed.
func TestNetModelParseAndText(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want NetModel
		ok   bool
	}{
		{"clique", Clique, true}, {"", Clique, true}, {"star", Star, true},
		{"hybrid", Hybrid, true}, {"steiner", Clique, false},
	} {
		if m, ok := ParseNetModel(tc.in); m != tc.want || ok != tc.ok {
			t.Errorf("ParseNetModel(%q) = %v,%v want %v,%v", tc.in, m, ok, tc.want, tc.ok)
		}
		var u NetModel
		if err := u.UnmarshalText([]byte(tc.in)); (err == nil) != tc.ok || u != tc.want {
			t.Errorf("UnmarshalText(%q) = %v,%v want %v, ok %v", tc.in, u, err, tc.want, tc.ok)
		} else if err != nil && !strings.Contains(err.Error(), "want clique, star, or hybrid") {
			t.Errorf("UnmarshalText(%q) error %q does not list the choices", tc.in, err)
		}
	}
	for _, m := range []NetModel{Clique, Star, Hybrid} {
		text, err := m.MarshalText()
		var back NetModel
		if err != nil || string(text) != m.String() || back.UnmarshalText(text) != nil || back != m {
			t.Errorf("%v does not round-trip through its text %q", m, text)
		}
	}
}
