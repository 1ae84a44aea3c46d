package netlist

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/geom"
)

const bsNodes = `UCLA nodes 1.0
# comment
NumNodes : 4
NumTerminals : 1
	a	2	1
	bb	1	1
	blk	4	4
	pad	0	0 terminal
`

const bsNets = `UCLA nets 1.0
NumNets : 2
NumPins : 5
NetDegree : 3 n_one
	a O : 0.5 0
	bb I : 0 0
	blk I : -1 1
NetDegree : 2 n_two
	bb O : 0 0
	pad I : 0 0
`

const bsPl = `UCLA pl 1.0
a	1	0	: N
bb	4	0	: N
blk	6	0	: N
pad	0	9	: N /FIXED
`

const bsScl = `UCLA scl 1.0
NumRows : 2
CoreRow Horizontal
 Coordinate : 0
 Height : 1
 Sitewidth : 1
 Sitespacing : 1
 SubrowOrigin : 0
 NumSites : 20
End
CoreRow Horizontal
 Coordinate : 1
 Height : 1
 Sitewidth : 1
 Sitespacing : 1
 SubrowOrigin : 0
 NumSites : 20
End
`

func TestReadBookshelf(t *testing.T) {
	nl, err := ReadBookshelf("demo",
		strings.NewReader(bsNodes), strings.NewReader(bsNets),
		strings.NewReader(bsPl), strings.NewReader(bsScl))
	if err != nil {
		t.Fatal(err)
	}
	if len(nl.Cells) != 4 || len(nl.Nets) != 2 {
		t.Fatalf("shape: %d cells %d nets", len(nl.Cells), len(nl.Nets))
	}
	// Terminal flag from .nodes and /FIXED from .pl both mark fixed.
	if !nl.Cells[3].Fixed {
		t.Error("terminal not fixed")
	}
	// Center conversion: a at lower-left (1,0), 2x1 -> center (2, 0.5).
	if nl.Cells[0].Pos != (geom.Point{X: 2, Y: 0.5}) {
		t.Errorf("a center = %v", nl.Cells[0].Pos)
	}
	// Pin offsets and directions.
	if nl.Nets[0].Pins[0].Dir != Output || nl.Nets[0].Pins[0].Offset.X != 0.5 {
		t.Errorf("pin 0 = %+v", nl.Nets[0].Pins[0])
	}
	// Rows from .scl.
	if len(nl.Region.Rows) != 2 || nl.Region.Rows[1].Y != 1 {
		t.Errorf("rows = %+v", nl.Region.Rows)
	}
	if nl.Region.Rows[0].Capacity() != 20 {
		t.Errorf("row capacity = %v", nl.Region.Rows[0].Capacity())
	}
}

func TestReadBookshelfWithoutScl(t *testing.T) {
	nl, err := ReadBookshelf("noscl",
		strings.NewReader(bsNodes), strings.NewReader(bsNets),
		strings.NewReader(bsPl), nil)
	if err != nil {
		t.Fatal(err)
	}
	if nl.Region.Outline.Empty() {
		t.Error("no region derived from placement")
	}
}

func TestBookshelfRoundTrip(t *testing.T) {
	orig := tiny(t)
	orig.Cells[2].Pos = geom.Point{X: 3.25, Y: 0.5}
	orig.Nets[1].Pins[0].Offset = geom.Point{X: 0.5, Y: -0.25}
	withAllDirs(orig)

	var nodes, nets, pl, scl bytes.Buffer
	if err := WriteBookshelf(orig, &nodes, &nets, &pl, &scl); err != nil {
		t.Fatal(err)
	}
	files := [4]string{nodes.String(), nets.String(), pl.String(), scl.String()}
	read := func(nets string) *Netlist {
		t.Helper()
		got, err := ReadBookshelf("rt", strings.NewReader(files[0]), strings.NewReader(nets),
			strings.NewReader(files[2]), strings.NewReader(files[3]))
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	// Bookshelf's direction marker is optional: the same nets with the
	// bidirectional markers dropped, so that an Inout pin's line reads
	// "d : -0.25 0.125", must read back the same pins, offsets included.
	unmarked := strings.ReplaceAll(files[1], " B : ", " : ")
	if unmarked == files[1] {
		t.Fatal("the written nets carry no bidirectional pin to unmark")
	}
	samePins(t, read(unmarked), orig)
	got := read(files[1])
	if len(got.Cells) != len(orig.Cells) || len(got.Nets) != len(orig.Nets) {
		t.Fatalf("shape mismatch")
	}
	if math.Abs(got.HPWL()-orig.HPWL()) > 1e-9*(1+orig.HPWL()) {
		t.Errorf("HPWL %v vs %v", got.HPWL(), orig.HPWL())
	}
	if len(got.Region.Rows) != len(orig.Region.Rows) {
		t.Errorf("rows lost: %d vs %d", len(got.Region.Rows), len(orig.Region.Rows))
	}
	if got.Cells[2].Pos.Dist(orig.Cells[2].Pos) > 1e-9 {
		t.Errorf("position %v vs %v", got.Cells[2].Pos, orig.Cells[2].Pos)
	}
	samePins(t, got, orig)
}

// TestLoadBookshelfAux loads designs through their .aux file. A file the
// .aux names must exist and parse; one it does not name is optional.
func TestLoadBookshelfAux(t *testing.T) {
	const all = "RowBasedPlacement : d.nodes d.nets d.pl d.scl\n"
	for _, tc := range []struct {
		name, aux, pl string
		skip          string // file left off the disk
		wantErr       bool
	}{
		{name: "complete", aux: all, pl: bsPl},
		{name: "scl not named", aux: "RowBasedPlacement : d.nodes d.nets d.pl\n", pl: bsPl, skip: "d.scl"},
		{name: "named pl missing", aux: all, pl: bsPl, skip: "d.pl", wantErr: true},
		{name: "named scl missing", aux: all, pl: bsPl, skip: "d.scl", wantErr: true},
		{name: "malformed pl", aux: all, pl: "UCLA pl 1.0\na\tx\ty\t: N\n", wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			files := map[string]string{"d.aux": tc.aux, "d.nodes": bsNodes, "d.nets": bsNets, "d.pl": tc.pl, "d.scl": bsScl}
			for name, data := range files {
				if name == tc.skip {
					continue
				}
				if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			nl, err := LoadBookshelf(filepath.Join(dir, "d.aux"))
			if tc.wantErr {
				if err == nil {
					t.Fatal("LoadBookshelf returned no error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if nl.Name != "d" || len(nl.Cells) != 4 {
				t.Errorf("loaded %q with %d cells", nl.Name, len(nl.Cells))
			}
		})
	}
}

func TestBookshelfErrors(t *testing.T) {
	bad := func(nodes, nets string) error {
		_, err := ReadBookshelf("bad", strings.NewReader(nodes), strings.NewReader(nets), nil, nil)
		return err
	}
	if err := bad("UCLA nodes 1.0\n a 1\n", bsNets); err == nil {
		t.Error("short node line accepted")
	}
	if err := bad("UCLA nodes 1.0\n a x y\n", bsNets); err == nil {
		t.Error("bad dimensions accepted")
	}
	if err := bad(strings.Replace(bsNodes, "bb\t1\t1", "bb\tNaN\t1", 1), bsNets); err == nil {
		t.Error("NaN node width accepted")
	}
	if err := bad("UCLA nodes 1.0\n a 1 1\n a 1 1\n", bsNets); err == nil {
		t.Error("duplicate node accepted")
	}
	if err := bad(bsNodes, "UCLA nets 1.0\n ghost I : 0 0\n"); err == nil {
		t.Error("pin before NetDegree accepted")
	}
	if err := bad(bsNodes, "UCLA nets 1.0\nNetDegree : 2 n\n ghost I : 0 0\n a O : 0 0\n"); err == nil {
		t.Error("unknown node pin accepted")
	}
	if _, err := LoadBookshelf("/nonexistent/file.aux"); err == nil {
		t.Error("missing aux accepted")
	}
}
