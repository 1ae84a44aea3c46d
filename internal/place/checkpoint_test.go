package place

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/netgen"
	"repro/internal/netlist"
)

func checkpointCircuit() *netlist.Netlist {
	return netgen.Generate(netgen.Config{
		Name: "ckpt", Cells: 400, Nets: 520, Rows: 8, Seed: 7,
	})
}

// TestCheckpointResumeBitIdentical is the golden determinism test: running
// to completion and running to iteration k, checkpointing through an
// encode/decode round trip, resuming on a fresh copy of the netlist, and
// finishing must produce bit-identical final positions and HPWL. This
// leans on the engine's insertion-order-stable refill guarantees (PR 2):
// every source of nondeterminism in the loop would show up here.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	cfg := Config{MaxIter: 60}

	// Reference: one uninterrupted run.
	ref := checkpointCircuit()
	refRes, err := New(ref, cfg).Run(context.Background())
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	// Interrupted: cancel after k transformations, checkpoint, resume.
	const k = 17
	interrupted := checkpointCircuit()
	ctx, cancel := context.WithCancel(context.Background())
	cfgStop := cfg
	cfgStop.OnIteration = func(s IterStats) {
		if s.Iter == k-1 {
			cancel()
		}
	}
	p := New(interrupted, cfgStop)
	partial, err := p.Run(ctx)
	if err != nil {
		t.Fatalf("interrupted run: %v", err)
	}
	if partial.StopReason != StopCancelled {
		t.Fatalf("interrupted run stopped on %q, want %q", partial.StopReason, StopCancelled)
	}
	if partial.Iterations != k {
		t.Fatalf("interrupted run did %d iterations, want %d", partial.Iterations, k)
	}

	var buf bytes.Buffer
	if err := p.Checkpoint().Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	ck, err := DecodeCheckpoint(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}

	resumedNl := checkpointCircuit()
	resumed, err := Resume(resumedNl, cfg, ck)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	resRes, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}

	if resRes.StopReason != refRes.StopReason {
		t.Errorf("stop reason: resumed %q vs reference %q", resRes.StopReason, refRes.StopReason)
	}
	if resRes.Iterations != refRes.Iterations {
		t.Errorf("iterations: resumed %d vs reference %d", resRes.Iterations, refRes.Iterations)
	}
	if resRes.HPWL != refRes.HPWL {
		t.Errorf("HPWL: resumed %v vs reference %v (diff %g)", resRes.HPWL, refRes.HPWL, resRes.HPWL-refRes.HPWL)
	}
	for i := range ref.Cells {
		a, b := ref.Cells[i].Pos, resumedNl.Cells[i].Pos
		if a != b {
			t.Fatalf("cell %d: reference %v vs resumed %v — positions not bit-identical", i, a, b)
		}
	}
}

// TestCheckpointIsDeepCopy: mutating the placer after Checkpoint must not
// disturb the snapshot.
func TestCheckpointIsDeepCopy(t *testing.T) {
	nl := checkpointCircuit()
	p := New(nl, Config{MaxIter: 5})
	if _, err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ck := p.Checkpoint()
	posBefore := append([]float64(nil), ck.Positions...)
	if _, err := p.Step(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(posBefore, ck.Positions) {
		t.Fatal("Checkpoint positions changed when the placer kept running")
	}
}

func TestCheckpointRoundTripExact(t *testing.T) {
	nl := checkpointCircuit()
	p := New(nl, Config{MaxIter: 8})
	if _, err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ck := p.Checkpoint()
	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck, got) {
		t.Fatal("checkpoint did not survive an encode/decode round trip exactly")
	}
}

func TestResumeRejectsMismatchedNetlist(t *testing.T) {
	nl := checkpointCircuit()
	p := New(nl, Config{MaxIter: 3})
	if _, err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ck := p.Checkpoint()

	other := netgen.Generate(netgen.Config{Name: "other", Cells: 50, Nets: 60, Rows: 4, Seed: 1})
	if _, err := Resume(other, Config{}, ck); err == nil {
		t.Fatal("Resume accepted a checkpoint from a different design")
	}

	ck.Version = CheckpointVersion + 1
	if _, err := Resume(nl, Config{}, ck); err == nil {
		t.Fatal("Resume accepted a checkpoint with a wrong version")
	}

	// A version-1 snapshot's warm vectors lack the star centers.
	ck.Version = 1
	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCheckpoint(&buf); !errors.Is(err, ErrCheckpointVersion) {
		t.Fatalf("decoding a version-1 snapshot: %v, want ErrCheckpointVersion", err)
	}
}

// TestDecodeCheckpointCorrupt: truncated and corrupted snapshots must
// error, never panic, and never produce a checkpoint that later panics.
func TestDecodeCheckpointCorrupt(t *testing.T) {
	nl := checkpointCircuit()
	p := New(nl, Config{MaxIter: 3})
	if _, err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Checkpoint().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	valid := bytes.TrimSpace(buf.Bytes()) // drop the encoder's trailing newline

	for _, cut := range []int{0, 1, 10, len(valid) / 2, len(valid) - 1} {
		if _, err := DecodeCheckpoint(bytes.NewReader(valid[:cut])); err == nil {
			t.Errorf("truncation at %d decoded without error", cut)
		}
	}
	corrupt := bytes.Replace(valid, []byte(`"positions":[`), []byte(`"positions":[1e999,`), 1)
	if _, err := DecodeCheckpoint(bytes.NewReader(corrupt)); err == nil {
		t.Error("snapshot with an out-of-range float decoded without error")
	}
	n := len(nl.Cells)
	short := bytes.Replace(valid,
		[]byte(fmt.Sprintf(`"cells":%d`, n)),
		[]byte(fmt.Sprintf(`"cells":%d`, n+1)), 1)
	if bytes.Equal(short, valid) {
		t.Fatal("cell-count field not found in encoding")
	}
	if _, err := DecodeCheckpoint(bytes.NewReader(short)); err == nil {
		t.Error("snapshot with inconsistent vector lengths decoded without error")
	}
}

// FuzzCheckpointDecode hammers the decode path: arbitrary bytes must
// either fail cleanly or yield a checkpoint that validates and survives a
// re-encode round trip. A panic anywhere fails the fuzz run.
func FuzzCheckpointDecode(f *testing.F) {
	nl := checkpointCircuit()
	p := New(nl, Config{MaxIter: 3})
	if _, err := p.Run(context.Background()); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Checkpoint().Encode(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(`{"version":2,"cells":0,"nets":0}`))
	f.Add([]byte(`{"version":2,"cells":-1}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := DecodeCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := ck.Encode(&out); err != nil {
			t.Fatalf("valid checkpoint failed to re-encode: %v", err)
		}
		again, err := DecodeCheckpoint(&out)
		if err != nil {
			t.Fatalf("re-encoded checkpoint failed to decode: %v", err)
		}
		if again.Iter != ck.Iter || again.Cells != ck.Cells || len(again.Positions) != len(ck.Positions) {
			t.Fatal("checkpoint changed across a re-encode round trip")
		}
		// NaN components compare unequal, but Validate guarantees
		// finiteness, so exact equality is the right check here.
		if !reflect.DeepEqual(ck, again) {
			t.Fatal("checkpoint not bit-stable across re-encode")
		}
	})
}

// TestRunCancelled: cancelling between transformations stops the run with
// StopCancelled, a nil error, and a usable partial placement.
func TestRunCancelled(t *testing.T) {
	nl := checkpointCircuit()
	ctx, cancel := context.WithCancel(context.Background())
	cfg := Config{MaxIter: 200, OnIteration: func(s IterStats) {
		if s.Iter == 2 {
			cancel()
		}
	}}
	res, err := New(nl, cfg).Run(ctx)
	if err != nil {
		t.Fatalf("cancelled run returned error: %v", err)
	}
	if res.StopReason != StopCancelled {
		t.Fatalf("StopReason = %q, want %q", res.StopReason, StopCancelled)
	}
	if res.Converged {
		t.Error("cancelled run reported Converged")
	}
	if res.Iterations != 3 {
		t.Errorf("Iterations = %d, want 3 (cancel observed before the 4th step)", res.Iterations)
	}
	assertLegalPartial(t, nl, res)
}

// TestRunDeadline: an expired deadline yields StopDeadline — distinctly
// from cancellation — with the placement reached so far and no error.
func TestRunDeadline(t *testing.T) {
	nl := checkpointCircuit()
	ctx, cancel := context.WithTimeout(context.Background(), 1)
	defer cancel()
	<-ctx.Done() // deterministically expired
	res, err := New(nl, Config{MaxIter: 200}).Run(ctx)
	if err != nil {
		t.Fatalf("deadline run returned error: %v", err)
	}
	if res.StopReason != StopDeadline {
		t.Fatalf("StopReason = %q, want %q", res.StopReason, StopDeadline)
	}
	if res.Iterations != 0 {
		t.Errorf("Iterations = %d, want 0 for a pre-expired deadline", res.Iterations)
	}
	// Initialize still ran: the force-free quadratic optimum is itself a
	// valid (if unspread) placement.
	assertLegalPartial(t, nl, res)
}

// assertLegalPartial checks the graceful-degradation contract: whatever
// iteration the run stopped at, every cell sits at a finite position
// inside the region and the reported HPWL is finite.
func assertLegalPartial(t *testing.T, nl *netlist.Netlist, res Result) {
	t.Helper()
	if math.IsNaN(res.HPWL) || math.IsInf(res.HPWL, 0) {
		t.Fatalf("partial result HPWL = %v", res.HPWL)
	}
	out := nl.Region.Outline
	for i := range nl.Cells {
		c := nl.Cells[i]
		if c.Fixed {
			continue
		}
		if math.IsNaN(c.Pos.X) || math.IsNaN(c.Pos.Y) {
			t.Fatalf("cell %d at NaN position", i)
		}
		if !out.Contains(c.Pos) {
			t.Fatalf("cell %d at %v outside region", i, c.Pos)
		}
	}
}
