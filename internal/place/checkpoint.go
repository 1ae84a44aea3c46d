// Checkpointing: the full mutable state of the iterative algorithm —
// positions, iteration counter, accumulated forces, net weights, CG warm
// vectors, and the Run loop's progress — serialized to a versioned JSON
// snapshot. Because encoding/json emits float64 in the shortest form that
// round-trips exactly, a Resume from a snapshot continues bit-compatibly:
// Run-to-completion and Run→Checkpoint→Resume→Run produce identical final
// placements (the golden test in checkpoint_test.go enforces this).
//
// The serving layer uses checkpoints to drain in-flight jobs on shutdown;
// kplace -checkpoint/-resume exposes the same mechanism on the CLI.

package place

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// CheckpointVersion is the current snapshot schema version. Decoding
// rejects snapshots from other versions: the state captured here is tied
// to the iteration's internals, so silent cross-version resumes would not
// be bit-compatible. Version 2 added the star centers' entries to the warm
// vectors, so a version-1 snapshot would resume from the wrong guess.
const CheckpointVersion = 2

// ErrCheckpointVersion reports a snapshot whose version does not match
// CheckpointVersion.
var ErrCheckpointVersion = errors.New("place: unsupported checkpoint version")

// Checkpoint is a serializable snapshot of a Placer mid-run. Point vectors
// are stored as interleaved x,y float64 pairs (length 2·Cells).
type Checkpoint struct {
	Version int `json:"version"`
	// Design, Cells and Nets identify the netlist the snapshot belongs
	// to; Resume refuses a snapshot taken on a different design.
	Design string `json:"design"`
	Cells  int    `json:"cells"`
	Nets   int    `json:"nets"`

	// Iter is the number of completed placement transformations.
	Iter int `json:"iter"`
	// Started records whether Initialize has run; Resume of an unstarted
	// snapshot lets Run initialize from scratch.
	Started bool `json:"started"`

	Positions  []float64 `json:"positions"`         // cell centers, 2·Cells
	Forces     []float64 `json:"forces"`            // accumulated e, 2·Cells
	Pending    []float64 `json:"pending,omitempty"` // queued Pull forces, 2·Cells
	NetWeights []float64 `json:"net_weights"`       // one per net

	// WarmDX/WarmDY are the previous transformation's displacement
	// response, the CG starting guess of the next one: one entry per
	// unknown of the quadratic system, cells and then star centers.
	WarmDX []float64 `json:"warm_dx,omitempty"`
	WarmDY []float64 `json:"warm_dy,omitempty"`

	// Run-loop progress (see runState).
	DoneStreak int       `json:"done_streak"`
	BestIter   int       `json:"best_iter"`
	BestValid  bool      `json:"best_valid"` // BestOvf is meaningful (it starts at +Inf, which JSON cannot carry)
	BestOvf    float64   `json:"best_ovf"`
	BestSnap   []float64 `json:"best_snap,omitempty"` // best placement seen, 2·Cells
}

func pointsToFloats(ps []geom.Point) []float64 {
	if ps == nil {
		return nil
	}
	out := make([]float64, 2*len(ps))
	for i, p := range ps {
		out[2*i], out[2*i+1] = p.X, p.Y
	}
	return out
}

func floatsToPoints(fs []float64) []geom.Point {
	out := make([]geom.Point, len(fs)/2)
	for i := range out {
		out[i] = geom.Point{X: fs[2*i], Y: fs[2*i+1]}
	}
	return out
}

// Checkpoint captures the placer's current state. The snapshot is a deep
// copy: the placer may keep running afterwards without disturbing it.
func (p *Placer) Checkpoint() *Checkpoint {
	nl := p.nl
	ck := &Checkpoint{
		Version:    CheckpointVersion,
		Design:     nl.Name,
		Cells:      len(nl.Cells),
		Nets:       len(nl.Nets),
		Iter:       p.iter,
		Started:    p.rs.started,
		Positions:  pointsToFloats(nl.Snapshot()),
		Forces:     pointsToFloats(p.forces),
		Pending:    pointsToFloats(p.pending),
		NetWeights: make([]float64, len(nl.Nets)),
		WarmDX:     append([]float64(nil), p.warmDX...),
		WarmDY:     append([]float64(nil), p.warmDY...),
		DoneStreak: p.rs.doneStreak,
		BestIter:   p.rs.bestIter,
		BestSnap:   pointsToFloats(p.rs.bestSnap),
	}
	for i := range nl.Nets {
		ck.NetWeights[i] = nl.Nets[i].Weight
	}
	if !math.IsInf(p.rs.bestOvf, 1) {
		ck.BestValid = true
		ck.BestOvf = p.rs.bestOvf
	}
	return ck
}

// Validate checks the snapshot's internal consistency: version, vector
// lengths, and finiteness. A snapshot that validates can be passed to
// Resume without panicking.
func (c *Checkpoint) Validate() error {
	if c.Version != CheckpointVersion {
		return fmt.Errorf("%w: got %d, want %d", ErrCheckpointVersion, c.Version, CheckpointVersion)
	}
	if c.Cells < 0 || c.Nets < 0 || c.Iter < 0 {
		return fmt.Errorf("place: checkpoint with negative counts (cells %d, nets %d, iter %d)", c.Cells, c.Nets, c.Iter)
	}
	want := 2 * c.Cells
	if len(c.Positions) != want {
		return fmt.Errorf("place: checkpoint positions length %d, want %d", len(c.Positions), want)
	}
	if len(c.Forces) != want {
		return fmt.Errorf("place: checkpoint forces length %d, want %d", len(c.Forces), want)
	}
	if len(c.Pending) != 0 && len(c.Pending) != want {
		return fmt.Errorf("place: checkpoint pending length %d, want 0 or %d", len(c.Pending), want)
	}
	if len(c.NetWeights) != c.Nets {
		return fmt.Errorf("place: checkpoint net weights length %d, want %d", len(c.NetWeights), c.Nets)
	}
	if len(c.WarmDX) != len(c.WarmDY) {
		return fmt.Errorf("place: checkpoint warm vectors disagree (%d vs %d)", len(c.WarmDX), len(c.WarmDY))
	}
	if len(c.BestSnap) != 0 && len(c.BestSnap) != want {
		return fmt.Errorf("place: checkpoint best snapshot length %d, want 0 or %d", len(c.BestSnap), want)
	}
	if c.Started && len(c.BestSnap) == 0 {
		return fmt.Errorf("place: started checkpoint without best snapshot")
	}
	for _, vs := range [][]float64{c.Positions, c.Forces, c.Pending, c.NetWeights, c.WarmDX, c.WarmDY, c.BestSnap} {
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("place: checkpoint contains non-finite value")
			}
		}
	}
	if c.BestValid && (math.IsNaN(c.BestOvf) || math.IsInf(c.BestOvf, 0)) {
		return fmt.Errorf("place: checkpoint best overflow non-finite")
	}
	return nil
}

// Encode writes the snapshot as a single JSON object.
func (c *Checkpoint) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(c)
}

// DecodeCheckpoint reads and validates a JSON snapshot. Truncated or
// corrupted input returns an error; it never panics (the fuzz target in
// checkpoint_test.go hammers this).
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	var c Checkpoint
	dec := json.NewDecoder(r)
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("place: decode checkpoint: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// Resume reconstructs a warm placer from a snapshot: net weights and cell
// positions are restored into nl, and the returned placer's Run continues
// from the checkpointed transformation bit-compatibly with a run that was
// never interrupted. The configuration must match the one the snapshot
// was taken under (it is not part of the snapshot); the netlist must be
// the same design.
func Resume(nl *netlist.Netlist, cfg Config, c *Checkpoint) (*Placer, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.Design != nl.Name || c.Cells != len(nl.Cells) || c.Nets != len(nl.Nets) {
		return nil, fmt.Errorf("place: checkpoint for %q (%d cells, %d nets) does not match netlist %q (%d cells, %d nets)",
			c.Design, c.Cells, c.Nets, nl.Name, len(nl.Cells), len(nl.Nets))
	}
	for i := range nl.Nets {
		nl.Nets[i].Weight = c.NetWeights[i]
	}
	nl.Restore(floatsToPoints(c.Positions))

	p := New(nl, cfg)
	p.iter = c.Iter
	p.forces = floatsToPoints(c.Forces)
	if len(c.Pending) > 0 {
		p.pending = floatsToPoints(c.Pending)
	}
	if len(c.WarmDX) > 0 {
		p.warmDX = append([]float64(nil), c.WarmDX...)
		p.warmDY = append([]float64(nil), c.WarmDY...)
	}
	p.rs = runState{
		started:    c.Started,
		doneStreak: c.DoneStreak,
		bestOvf:    math.Inf(1),
		bestIter:   c.BestIter,
		bestSnap:   floatsToPoints(c.BestSnap),
	}
	if len(c.BestSnap) == 0 {
		p.rs.bestSnap = nil
	}
	if c.BestValid {
		p.rs.bestOvf = c.BestOvf
	}
	return p, nil
}
