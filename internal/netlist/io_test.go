package netlist

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/geom"
)

func TestWriteReadRoundTrip(t *testing.T) {
	nl := tiny(t)
	nl.Cells[2].Pos = geom.Point{X: 1.5, Y: 0.5}
	nl.Cells[2].Delay = 2e-9
	nl.Cells[3].Seq = true
	nl.Cells[3].Power = 0.25
	nl.Nets[1].Weight = 2.5
	nl.Nets[1].Pins[0].Offset = geom.Point{X: 0.5, Y: -0.25}
	nl.Nets[1].Pins[1].Cap = 1e-14
	withAllDirs(nl)

	var buf bytes.Buffer
	if err := Write(&buf, nl); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Name != "tiny" {
		t.Errorf("name = %q", got.Name)
	}
	if len(got.Cells) != len(nl.Cells) || len(got.Nets) != len(nl.Nets) {
		t.Fatalf("shape mismatch: %d/%d cells, %d/%d nets",
			len(got.Cells), len(nl.Cells), len(got.Nets), len(nl.Nets))
	}
	if got.Cells[2].Pos != nl.Cells[2].Pos {
		t.Errorf("placed position lost: %v", got.Cells[2].Pos)
	}
	if got.Cells[2].Delay != 2e-9 {
		t.Errorf("delay lost: %v", got.Cells[2].Delay)
	}
	if !got.Cells[3].Seq || got.Cells[3].Power != 0.25 {
		t.Errorf("seq/power lost: %+v", got.Cells[3])
	}
	if got.Nets[1].Weight != 2.5 {
		t.Errorf("weight lost: %v", got.Nets[1].Weight)
	}
	if got.Nets[1].Pins[0].Offset != (geom.Point{X: 0.5, Y: -0.25}) {
		t.Errorf("offset lost: %v", got.Nets[1].Pins[0].Offset)
	}
	if got.Nets[1].Pins[1].Cap != 1e-14 {
		t.Errorf("cap lost: %v", got.Nets[1].Pins[1].Cap)
	}
	if math.Abs(got.Region.W()-10) > 1e-12 || len(got.Region.Rows) != 4 {
		t.Errorf("region lost: %v rows=%d", got.Region.Outline, len(got.Region.Rows))
	}
	samePins(t, got, nl)
	// Fixed pads survive.
	if !got.Cells[0].Fixed || got.Cells[0].Pos != (geom.Point{X: 0, Y: 2}) {
		t.Errorf("pad lost: %+v", got.Cells[0])
	}
}

// withAllDirs makes net n2 of tiny carry all three PinDir values: b
// drives it, c is a sink, and d is bidirectional, with an offset.
func withAllDirs(nl *Netlist) {
	pins := nl.Nets[1].Pins
	pins[0].Dir, pins[1].Dir, pins[2].Dir = Output, Input, Inout
	pins[2].Offset = geom.Point{X: -0.25, Y: 0.125}
}

// samePins requires every pin of got to match want's: cell, direction
// and offset.
func samePins(t *testing.T, got, want *Netlist) {
	t.Helper()
	for ni := range want.Nets {
		wp, gp := want.Nets[ni].Pins, got.Nets[ni].Pins
		if len(gp) != len(wp) {
			t.Errorf("net %d: %d pins, want %d", ni, len(gp), len(wp))
			continue
		}
		for k := range wp {
			if gp[k].Cell != wp[k].Cell || gp[k].Dir != wp[k].Dir || gp[k].Offset != wp[k].Offset {
				t.Errorf("net %d pin %d: cell %d %v %v, want cell %d %v %v", ni, k,
					gp[k].Cell, gp[k].Dir, gp[k].Offset, wp[k].Cell, wp[k].Dir, wp[k].Offset)
			}
		}
	}
}

func TestReadIgnoresCommentsAndBlanks(t *testing.T) {
	src := `
# a comment
circuit demo
region 10 4 4 1

cell a 1 1
cell b 1 1
# another comment
net n a:out b:in
`
	nl, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(nl.Cells) != 2 || len(nl.Nets) != 1 {
		t.Errorf("parsed %d cells, %d nets", len(nl.Cells), len(nl.Nets))
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"unknown directive", "bogus x\n"},
		{"region args", "region 10\n"},
		{"region numbers", "region a b c d\n"},
		{"cell args", "cell a\n"},
		{"cell dims", "cell a x y\n"},
		{"dup cell", "region 10 4 4 1\ncell a 1 1\ncell a 1 1\n"},
		{"net unknown cell", "region 10 4 4 1\ncell a 1 1\nnet n a ghost\n"},
		{"net one pin", "region 10 4 4 1\ncell a 1 1\nnet n a\n"},
		{"bad weight", "region 10 4 4 1\ncell a 1 1\ncell b 1 1\nnet n weight x a b\n"},
		{"bad dir", "region 10 4 4 1\ncell a 1 1\ncell b 1 1\nnet n a:sideways b\n"},
		{"bad offset", "region 10 4 4 1\ncell a 1 1\ncell b 1 1\nnet n a:in:1 b\n"},
		{"bad cap", "region 10 4 4 1\ncell a 1 1\ncell b 1 1\nnet n a:in:1,1:zz b\n"},
		{"place unknown", "region 10 4 4 1\ncell a 1 1\ncell b 1 1\nnet n a b\nplace ghost 1 1\n"},
		{"place coords", "region 10 4 4 1\ncell a 1 1\ncell b 1 1\nnet n a b\nplace a x y\n"},
		{"fixed coords", "region 10 4 4 1\ncell a 1 1 fixed x y\n"},
		{"bad delay", "region 10 4 4 1\ncell a 1 1 delay zz\n"},
		{"bad power", "region 10 4 4 1\ncell a 1 1 power zz\n"},
		{"unknown attr", "region 10 4 4 1\ncell a 1 1 sparkly\n"},
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c.src)); err == nil {
			t.Errorf("%s: expected parse error", c.name)
		}
	}
}

// TestReadRejectsNonFinite: strconv.ParseFloat accepts "NaN" and "Inf",
// so every number the text format carries past the region line reaches
// Validate, which must reject a non-finite one wherever it sits.
func TestReadRejectsNonFinite(t *testing.T) {
	const base = "circuit nf\nregion 20 8 4 2\n" +
		"cell a 2 2\ncell b 2 2\ncell c 2 2\ncell p 1 1 fixed 0 4\n" +
		"net n1 a:out b:in c:in\nnet n2 c:out p:in\n"
	if _, err := Read(strings.NewReader(base)); err != nil {
		t.Fatalf("finite design rejected: %v", err)
	}
	for _, c := range []struct{ name, old, new string }{
		{"cell width", "cell a 2 2", "cell a NaN 2"},
		{"cell height", "cell b 2 2", "cell b 2 Inf"},
		{"fixed position", "fixed 0 4", "fixed 0 -Inf"},
		{"placed position", "net n2", "place a Inf 3\nnet n2"},
		{"delay", "cell c 2 2", "cell c 2 2 delay NaN"},
		{"power", "cell c 2 2", "cell c 2 2 power +Inf"},
		{"net weight NaN", "net n1", "net n1 weight NaN"},
		{"net weight Inf", "net n2", "net n2 weight Inf"},
		{"net weight -Inf", "net n1", "net n1 weight -Inf"},
		{"negative net weight", "net n2", "net n2 weight -5"},
		{"negative cell width", "cell a 2 2", "cell a -2 2"},
		{"negative cell height", "cell b 2 2", "cell b 2 -1"},
		{"pin offset", "b:in", "b:in:Inf,0"},
		{"pin capacitance", "p:in", "p:in:0,0:NaN"},
	} {
		src := strings.Replace(base, c.old, c.new, 1)
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("%s: %q accepted", c.name, c.new)
		}
	}
}

func TestReadRowlessRegion(t *testing.T) {
	src := "circuit fp\nregion 100 100 0 0\ncell a 10 10\ncell b 10 10\nnet n a b\n"
	nl, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(nl.Region.Rows) != 0 {
		t.Errorf("rows = %d, want 0", len(nl.Region.Rows))
	}
	if nl.Region.Area() != 10000 {
		t.Errorf("area = %v", nl.Region.Area())
	}
}

func TestWriteUnnamedEntities(t *testing.T) {
	nl := &Netlist{
		Region: geom.NewRegion(1, 1, 10),
		Cells:  []Cell{{W: 1, H: 1}, {W: 1, H: 1}},
		Nets:   []Net{{Pins: []Pin{{Cell: 0}, {Cell: 1}}, Weight: 1}},
	}
	var buf bytes.Buffer
	if err := Write(&buf, nl); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read of unnamed output: %v\n%s", err, buf.String())
	}
	if got.Cells[0].Name != "c0" {
		t.Errorf("synthesized name = %q", got.Cells[0].Name)
	}
}
