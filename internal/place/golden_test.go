package place

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"repro/internal/netgen"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestGoldenTrace pins the JSONL run-trace of a fixed small design, run to
// the §4.2 stop, byte for byte: the record keys, their order, and every
// value. The t_*_ns phase times are zeroed, since wall time is the one
// field that varies between runs. A change that moves the iteration
// sequence fails here; regenerate with
// `go test ./internal/place -run TestGoldenTrace -update` and review the
// diff.
func TestGoldenTrace(t *testing.T) {
	nl := netgen.Generate(netgen.Config{Name: "golden", Cells: 60, Nets: 80, Rows: 4, Seed: 3})
	res, err := Global(nl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason != StopCriterion {
		t.Fatalf("stopped on %s after %d transformations, want the §4.2 criterion", res.StopReason, res.Iterations)
	}
	var got bytes.Buffer
	for _, s := range res.Trace {
		s.Phases = Phases{}
		line, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		got.Write(append(line, '\n'))
	}
	const path = "testdata/trace.golden.jsonl"
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("trace differs from %s\ngot:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}
