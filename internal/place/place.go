// Package place implements the paper's core contribution: iterative
// force-directed global placement (Kraftwerk, §4). Each placement
// transformation computes the density-induced force field of the current
// placement, accumulates it into the constant force vector e, and re-solves
// the quadratic system C·p + d + e = 0. No hard constraint is ever imposed:
// cell spreading, area adaptation, mixed block/cell floorplanning, timing,
// congestion and heat all enter through forces and net weights.
package place

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"time"

	"repro/internal/density"
	"repro/internal/fft"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/obsv"
	"repro/internal/par"
	"repro/internal/qp"
	"repro/internal/sparse"
)

// Config controls the iterative algorithm. The zero value is the paper's
// standard mode.
type Config struct {
	// K is the user parameter of §4.1: each transformation's maximum force
	// increment equals the force of a net with length K·(W+H), scaled by
	// the step-control gain (IterStats.Damping). 0.2 is the paper's
	// standard mode, 1.0 the fast mode. Defaults to 0.2.
	K float64
	// MaxIter caps the number of placement transformations. Defaults
	// to 300.
	MaxIter int
	// KeepPlacement starts from the netlist's current positions instead of
	// gathering all cells at the region center. Used by ECO.
	KeepPlacement bool
	// CG configures the linear solver.
	CG sparse.CGOptions
	// BeforeTransform, when set, runs before every placement
	// transformation; timing-driven placement updates net weights here.
	BeforeTransform func(iter int, p *Placer)
	// ExtraDemand, when set, returns an additional demand map (length
	// bins²) blended into the density before each transformation;
	// congestion- and heat-driven placement use it.
	ExtraDemand func(g *density.Grid) []float64
	// OnIteration, when set, observes every completed transformation.
	OnIteration func(s IterStats)
	// NoTrace suppresses Result.Trace accumulation in Run, so long
	// MaxIter runs on large designs don't retain O(iterations) stats the
	// caller never reads. Per-run aggregates (Result.Phases, HPWL,
	// Overflow, Iterations) are still filled, and OnIteration still fires.
	NoTrace bool
}

func (c *Config) setDefaults() {
	if c.K <= 0 {
		c.K = 0.2
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 300
	}
	if c.CG.Tol <= 0 {
		// Placement transformations tolerate a loose solve; the next
		// iteration corrects any residual.
		c.CG.Tol = 1e-6
	}
}

// gridDims sizes the density grid from the design: about one bin per
// movable cell (half the resolution per axis in fast mode, K > 0.5),
// rounded to a power of two within [8, 256] per axis, then split across
// the axes proportionally to the region aspect ratio so bins stay roughly
// square even on wide row regions.
func gridDims(nl *netlist.Netlist, k float64) (nx, ny int) {
	b := int(math.Sqrt(float64(nl.NumMovable())))
	if k > 0.5 {
		// Fast mode trades field resolution for speed.
		b /= 2
	}
	bins := min(max(fft.NextPow2(b), 8), 256)
	w, h := nl.Region.W(), nl.Region.H()
	aspect := math.Sqrt(w / h)
	nx = fft.NextPow2(int(float64(bins) * aspect))
	ny = fft.NextPow2(int(float64(bins) / aspect))
	clamp := func(v int) int {
		if v < 4 {
			return 4
		}
		if v > 512 {
			return 512
		}
		return v
	}
	return clamp(nx), clamp(ny)
}

// IterStats describes one completed placement transformation. The JSON
// tags define the run-trace (JSONL) schema: one object per
// transformation, durations as integer nanoseconds.
type IterStats struct {
	Iter        int     `json:"iter"`
	HPWL        float64 `json:"hpwl"`
	Overflow    float64 `json:"overflow"`
	EmptySquare float64 `json:"empty_square"` // largest empty square area
	// GapProxy is EmptySquare normalized by the §4.2 stopping threshold
	// (stopSquareFactor × average cell area): a dimensionless
	// distance-to-convergence in the spirit of Coloquinte's LB/UB gap.
	// It falls toward 1 as the run approaches the stopping criterion;
	// ≤1 means the criterion is met.
	GapProxy float64 `json:"gap_proxy"`
	MaxForce float64 `json:"max_force"` // force increment magnitude before accumulation
	CGIterX  int     `json:"cg_iter_x"`
	CGIterY  int     `json:"cg_iter_y"`
	CGResidX float64 `json:"cg_resid_x"` // final relative residual, x solve
	CGResidY float64 `json:"cg_resid_y"` // final relative residual, y solve
	// Precond is the preconditioner the solves applied: IC0, or Jacobi
	// when PrecondFallback reports that the IC0 factorization broke down.
	Precond         sparse.Preconditioner `json:"precond"`
	PrecondFallback bool                  `json:"precond_fallback"`
	// Damping is the step-control gain this transformation applied, in
	// (0, 1]: the fraction of the K-sized force increment and trust
	// region it took. Backoff reports that the transformation's overflow
	// change reversed the previous one's sign, so the next transformation
	// takes a smaller step (see stepBackoff).
	Damping float64 `json:"damping"`
	Backoff bool    `json:"backoff"`

	// Phases is embedded, so its t_*_ns keys follow cg_resid_y at the
	// top level of the trace record.
	Phases
}

// Phases holds the per-phase wall times of one transformation (IterStats)
// or their sums over a run (Result.Phases). It declares the phase schema
// once: its JSON tags are the trace keys, and PhaseKeys and every
// per-phase breakdown derive from its fields. The phases before TStep are
// wall-clock segments of the step that do not overlap, so they sum to at
// most TStep; work that runs on both lanes at once counts once. The x/y
// solve pair and the end-of-step accumulation beside the wire length
// count as their wall time. The field solve runs on one lane while the
// other assembles the system and refactors its preconditioner: TBuild
// and TPrecond are that lane's own times, and TField is the rest of the
// overlapped section's wall time plus the force increments.
type Phases struct {
	TWeight    time.Duration `json:"t_weight_ns"`     // BeforeTransform (net-weight update)
	TGather    time.Duration `json:"t_gather_ns"`     // density of the current placement
	TField     time.Duration `json:"t_field_ns"`      // Poisson force field beyond the build lane, and the force increments
	TBuild     time.Duration `json:"t_build_ns"`      // quadratic system assembly, on the build lane
	TPrecond   time.Duration `json:"t_precond_ns"`    // preconditioner set-up (the IC0 refactor), on the build lane
	TSolvePair time.Duration `json:"t_solve_pair_ns"` // wall time of the concurrent x/y solve pair
	TFinish    time.Duration `json:"t_finish_ns"`     // displacement cap, clamp, end-of-step density and stats
	TStep      time.Duration `json:"t_step_ns"`       // whole transformation
}

// phaseKeys names each Phases field, in declaration order: its
// t_<phase>_ns JSON tag with the affixes stripped and underscores dashed.
var phaseKeys = func() []string {
	t := reflect.TypeOf(Phases{})
	keys := make([]string, t.NumField())
	for i := range keys {
		tag := strings.TrimSuffix(strings.TrimPrefix(t.Field(i).Tag.Get("json"), "t_"), "_ns")
		keys[i] = strings.ReplaceAll(tag, "_", "-")
	}
	return keys
}()

// PhaseKeys returns the canonical per-transformation phase names, in
// Phases declaration order ("weight", ..., "solve-pair", "step").
// ktracecheck derives its allowlist from it.
func PhaseKeys() []string { return append([]string(nil), phaseKeys...) }

// Each calls fn with every phase's key and duration, in declaration order.
func (p Phases) Each(fn func(key string, d time.Duration)) {
	v := reflect.ValueOf(p)
	for i, k := range phaseKeys {
		fn(k, time.Duration(v.Field(i).Int()))
	}
}

// Add accumulates q into p, phase by phase.
func (p *Phases) Add(q Phases) {
	v, w := reflect.ValueOf(p).Elem(), reflect.ValueOf(q)
	for i := range phaseKeys {
		v.Field(i).SetInt(v.Field(i).Int() + w.Field(i).Int())
	}
}

// StopReason says why a run ended. The typed string keeps the value set
// closed: every consumer switches or compares against the Stop* constants
// below, and the JSON form stays the bare string.
type StopReason string

// Stop reasons reported in Result.StopReason. The first three end a run on
// the algorithm's own terms; the last two are externally imposed. Because
// any prefix of the iteration is a valid placement (§4's stopping criterion
// is a quality threshold, not a structural requirement), a cancelled or
// deadline-expired run still leaves the best placement reached so far in
// the netlist and returns a nil error.
const (
	// StopCriterion is the paper's §4.2 empty-square rule.
	StopCriterion StopReason = "criterion"
	// StopStagnation means no fine-grid overflow progress for a window;
	// the best placement seen is restored.
	StopStagnation StopReason = "stagnation"
	// StopMaxIter means Config.MaxIter transformations ran.
	StopMaxIter StopReason = "max-iter"
	// StopCancelled means the run's context was cancelled between
	// transformations.
	StopCancelled StopReason = "cancelled"
	// StopDeadline means the run's context deadline expired between
	// transformations.
	StopDeadline StopReason = "deadline"
)

// stopReasonFor maps a context error to its stop reason.
func stopReasonFor(err error) StopReason {
	if errors.Is(err, context.DeadlineExceeded) {
		return StopDeadline
	}
	return StopCancelled
}

// Result summarizes a full run.
type Result struct {
	// Iterations is the total number of placement transformations the
	// placer has performed, including any performed before a checkpoint
	// when the placer was reconstructed by Resume.
	Iterations int
	// StopReason is one of the Stop* constants: "criterion" (the paper's
	// empty-square rule), "stagnation" (no fine-grid overflow progress for
	// a window), "max-iter", or the externally imposed "cancelled" /
	// "deadline".
	StopReason StopReason
	HPWL       float64
	Overflow   float64
	Runtime    time.Duration
	// Phases breaks the run's time down by transformation phase; filled
	// even with NoTrace set.
	Phases Phases
	Trace  []IterStats
}

// Placer carries the mutable state of the iterative algorithm.
type Placer struct {
	nl      *netlist.Netlist
	cfg     Config
	grid    *density.Grid
	forces  []geom.Point // accumulated additional forces e (one per cell)
	pending []geom.Point // externally queued forces for the next Step
	iter    int
	avgArea float64 // cached AvgCellArea (>0); denominator of GapProxy

	// asm caches the quadratic system's sparsity pattern and storage
	// across transformations.
	asm *qp.Assembler
	// warmDX/warmDY hold the previous transformation's displacement
	// response, the CG starting guess of the next one.
	warmDX, warmDY []float64
	// zeroGuess starts every transformation's CG solve from zero instead
	// of the previous response. Only tests set it, to check that the warm
	// start does not change where the iteration ends up.
	zeroGuess bool
	// Step scratch, reused across transformations so the steady-state
	// iteration allocates nothing: the force increment, the pre-solve
	// position snapshot, capDelta's displacement buffers, and the lane
	// tasks: the field solve beside the system build (the field task
	// keeps the density force field), and the end-of-step accumulation
	// beside the per-net wire lengths.
	inc        []geom.Point
	before     netlist.Placement
	dxs, dys   []float64
	field      fieldTask
	build      buildTask
	accumulate accumulateTask
	netLengths netLengthsTask

	// rs is the state of Run's stop policy and of the step control. It
	// lives on the Placer so Checkpoint can capture it and Resume can
	// restore it: a resumed run must make the same stop/restore decisions
	// an uninterrupted run would have made.
	rs runState
}

// runState is the mutable state of Run between transformations.
type runState struct {
	// started is set once Initialize has run, so a resumed or re-entered
	// Run continues instead of re-gathering all cells at the center.
	started bool
	// doneStreak counts consecutive iterations meeting the §4.2 criterion
	// (two are required: stopping on the first dip of the empty-square
	// measure costs wire length and timing exploitation, EXPERIMENTS E25).
	doneStreak int
	// bestOvf/bestIter/bestSnap track the best (lowest-overflow) placement
	// seen, restored when the run stops on stagnation.
	bestOvf  float64
	bestIter int
	bestSnap netlist.Placement
	// gain is the step-control gain the next transformation applies;
	// lastOvf and lastDOvf are the overflow the previous transformation
	// reached and the change it made, the response the gain reacts to.
	gain, lastOvf, lastDOvf float64
}

// react sets the next transformation's gain from the overflow ovf that
// transformation iter just reached, and reports whether it backed off.
// The loop normalizes every force increment to the same K-sized step, so
// on its own it cannot settle: once the density has flattened, each step
// overshoots and the next pushes back, and the overflow change flips sign
// every transformation. A flip is the sign of an overshoot, so it cuts
// the gain by stepBackoff(k); a transformation that keeps the previous
// direction grows the gain by stepGrowth, up to the full step.
func (rs *runState) react(iter int, ovf, k float64) bool {
	backoff := false
	if iter > 0 {
		d := ovf - rs.lastOvf
		if backoff = d*rs.lastDOvf < 0; backoff {
			rs.gain *= stepBackoff(k)
		} else {
			rs.gain = math.Min(1, rs.gain*stepGrowth)
		}
		rs.lastDOvf = d
	}
	rs.lastOvf = ovf
	return backoff
}

// Pull queues additional per-cell forces (indexed like the netlist's cells)
// to be folded into the next placement transformation's force increment.
// Timing-driven placement uses it to convert net-weight increases into the
// equivalent contraction pull on the re-weighted nets' cells.
func (p *Placer) Pull(forces []geom.Point) {
	if len(forces) != len(p.nl.Cells) {
		panic("place: Pull force vector length mismatch")
	}
	if p.pending == nil {
		p.pending = make([]geom.Point, len(p.nl.Cells))
	}
	for ci := range forces {
		if !p.nl.Cells[ci].Fixed {
			p.pending[ci] = p.pending[ci].Add(forces[ci])
		}
	}
}

// New prepares a placer for the netlist. The configuration is captured by
// value; the netlist is mutated in place by Step/Run.
func New(nl *netlist.Netlist, cfg Config) *Placer {
	cfg.setDefaults()
	nx, ny := gridDims(nl, cfg.K)
	// The coarse grid holds ~6 average cells per bin: at that granularity
	// an evenly spread placement has near-zero overflow, so the coarse
	// overflow measures genuine clumping rather than cell quantization.
	avg := nl.AvgCellArea()
	if avg <= 0 {
		avg = 1
	}
	grid := density.NewGrid(nl.Region.Outline, nx, ny)
	asm := qp.NewAssembler(nl, qp.Options{Linearize: true})
	return &Placer{
		nl:      nl,
		cfg:     cfg,
		grid:    grid,
		forces:  make([]geom.Point, len(nl.Cells)),
		avgArea: avg,
		asm:     asm,
		field:   fieldTask{grid: grid},
		build:   buildTask{asm: asm},
		rs:      runState{gain: 1},
	}
}

// Netlist returns the netlist being placed.
func (p *Placer) Netlist() *netlist.Netlist { return p.nl }

// Grid exposes the density grid (read-only use intended).
func (p *Placer) Grid() *density.Grid { return p.grid }

// Forces exposes the accumulated additional force vector e.
func (p *Placer) Forces() []geom.Point { return p.forces }

// Initialize implements §4.2 step 1: all movable cells at the region
// center, additional forces zero, followed by the first force-free solve —
// the global optimum of the quadratic wire length, which every subsequent
// placement transformation perturbs. With KeepPlacement set (ECO), the
// existing placement is kept as the equilibrium instead. As in Continue,
// only a solve that made no progress at all is an error; an unconverged
// one leaves a usable iterate.
func (p *Placer) Initialize() error {
	p.iter = 0
	for i := range p.forces {
		p.forces[i] = geom.Point{}
	}
	p.warmDX, p.warmDY = nil, nil
	p.rs = runState{started: true, bestOvf: math.Inf(1), gain: 1, bestSnap: p.rs.bestSnap}
	if p.cfg.KeepPlacement {
		p.rs.bestSnap = p.nl.SnapshotInto(p.rs.bestSnap)
		return nil
	}
	c := p.nl.Region.Outline.Center()
	for i := range p.nl.Cells {
		if !p.nl.Cells[i].Fixed {
			p.nl.Cells[i].Pos = c
		}
	}
	sys := p.asm.Assemble()
	res, err := sys.Solve(nil, p.cfg.CG)
	p.rs.bestSnap = p.nl.SnapshotInto(p.rs.bestSnap)
	if res.X.Iterations+res.Y.Iterations > 0 {
		return nil
	}
	return err
}

// Step performs one placement transformation (§4.1): determine the density
// forces of the current placement, accumulate them into e, and solve the
// extended quadratic system. A position or queued Pull force that is not
// finite when the field is applied, or a field or moved position that is
// not finite, ends the transformation with an error wrapping ErrNonFinite,
// e unchanged and the netlist at the placement it started from.
func (p *Placer) Step() (IterStats, error) {
	nl := p.nl
	cfg := &p.cfg
	stepStart := obsv.StartTimer()
	var ph Phases
	if cfg.BeforeTransform != nil {
		cfg.BeforeTransform(p.iter, p)
		ph.TWeight = stepStart.Elapsed()
	}

	// Density of the current placement (with any injected extra demand).
	// The previous transformation ended by accumulating it; Refresh reuses
	// that unless a cell moved or changed size since.
	mark := obsv.StartTimer()
	if cfg.ExtraDemand != nil {
		p.grid.SetExtra(cfg.ExtraDemand(p.grid))
	}
	p.grid.Refresh(nl)
	ph.TGather = mark.Elapsed()

	// Solve for the density's force field on one lane while the other
	// assembles the (possibly re-linearized) quadratic system and
	// refactors its preconditioner; the force normalization below depends
	// on the system's stiffness. The field reads only the density, the
	// build only the netlist, and neither writes what the other reads.
	mark = obsv.StartTimer()
	par.Fork(&p.field, &p.build)
	sys := p.build.sys
	ph.TBuild, ph.TPrecond = p.build.tBuild, p.build.tPrecond
	field := p.field.out

	// Force increment normalization (§4.1): the strongest field force is
	// scaled to the pull of a net of length K·(W+H). Two refinements over
	// a literal reading: the maximum is taken over the whole field (at the
	// all-cells-at-one-point start the field at the cells themselves is
	// nearly zero, and normalizing by it would amplify the common-mode
	// translation instead of spreading the blob), and the "net" strength
	// is the current mean spring stiffness, so a force increment displaces
	// an average cell by about K·(W+H) regardless of how the linearization
	// has re-weighted the springs. The step-control gain (runState.react)
	// then scales the increment down after overshoots.
	damping := p.rs.gain
	// The maximum is NaN or +Inf unless the whole field is finite; e and
	// the positions are still untouched here.
	maxMag := field.MaxMagnitude()
	if !finite(maxMag) {
		return IterStats{}, fmt.Errorf("place: iteration %d: density force field: %w", p.iter, ErrNonFinite)
	}
	kick := kickRef * math.Sqrt(cfg.K/0.2)
	targetMax := kick * (nl.Region.W() + nl.Region.H()) * meanStiffness(sys)
	scale := 0.0
	if maxMag > 0 {
		scale = damping * targetMax / maxMag
	}
	if len(p.inc) != len(nl.Cells) {
		p.inc = make([]geom.Point, len(nl.Cells))
	}
	inc := p.inc
	for ci := range nl.Cells {
		c := &nl.Cells[ci]
		if c.Fixed {
			inc[ci] = geom.Point{}
			continue
		}
		// A position set outside Step (a BeforeTransform hook, or a
		// caller between steps) is checked before the field lookup.
		if !finite(c.Pos.X) || !finite(c.Pos.Y) {
			return IterStats{}, fmt.Errorf("place: iteration %d: cell %d (%q) at (%g, %g): %w",
				p.iter, ci, c.Name, c.Pos.X, c.Pos.Y, ErrNonFinite)
		}
		inc[ci] = field.At(c.Pos).Scale(scale)
	}

	// Externally injected forces (timing-driven net-weight pulls, queued
	// via Pull) are normalized to the same per-iteration budget as the
	// density kick so compounding net weights cannot blow the iteration
	// up. The largest is NaN or +Inf unless every queued force is finite.
	var maxPull float64
	if p.pending != nil {
		for ci := range p.pending {
			if m := p.pending[ci].Norm(); m > maxPull || m != m {
				maxPull = m
			}
		}
		if !finite(maxPull) {
			return IterStats{}, fmt.Errorf("place: iteration %d: queued pull: %w", p.iter, ErrNonFinite)
		}
	}
	for ci := range inc {
		p.forces[ci] = p.forces[ci].Add(inc[ci]) // accumulated e, for observers
	}
	if p.pending != nil {
		pullScale := 1.0
		if maxPull > targetMax && targetMax > 0 {
			pullScale = targetMax / maxPull
		}
		for ci := range inc {
			f := p.pending[ci].Scale(pullScale)
			inc[ci] = inc[ci].Add(f)
			p.forces[ci] = p.forces[ci].Add(f)
		}
		p.pending = nil
	}
	p.before = nl.SnapshotInto(p.before)
	// The build lane's times are its own phases; the field phase is the
	// rest of the overlapped section, so the phases still sum to at most
	// the step.
	ph.TField = mark.Elapsed() - ph.TBuild - ph.TPrecond

	// Apply the transformation: starting from the previous equilibrium,
	// growing e by the increment moves the solution of C·p + d + e = 0 by
	// exactly δ = C⁻¹·inc (eq. 3, incremental form). Cells move slowly
	// between transformations, so the previous transformation's displacement
	// response is a good CG starting guess for this one; SolveDeltaFrom
	// overwrites the guess with the new response, priming the next iteration.
	var res qp.SolveResult
	var err error
	if p.zeroGuess {
		res, err = sys.SolveDelta(inc, cfg.CG)
	} else {
		if len(p.warmDX) != sys.N() {
			p.warmDX = make([]float64, sys.N())
			p.warmDY = make([]float64, sys.N())
		}
		res, err = sys.SolveDeltaFrom(inc, p.warmDX, p.warmDY, cfg.CG)
	}
	ph.TPrecond += res.PrecondWall
	ph.TSolvePair = res.PairWall
	if err != nil {
		// An unconverged CG still yields a usable iterate; report but
		// continue (placement quality, not solver perfection, is the goal).
		err = fmt.Errorf("place: iteration %d: %w", p.iter, err)
	}

	mark = obsv.StartTimer()
	// Per-axis trust region: K also bounds how far one transformation may
	// move any cell (K·W horizontally, K·H vertically, saturating at 45 %
	// of the axis so even K=1 cannot slam the design wall-to-wall). The
	// translation (common) mode of C is nearly unconstrained — only pads
	// and anchors resist it — so an almost-uniform force (e.g. the
	// interpolation residue of a single-bin blob at startup) would
	// otherwise throw the whole design across the chip in one step; on
	// strongly non-square regions the short axis needs its own bound.
	// The region shrinks with the damping: a weakly anchored cell's
	// response to even a small increment can reach the cap, so a
	// full-size cap would let such cells keep jumping after the damping
	// has settled the rest.
	kCap := math.Min(cfg.K, 0.45) * damping
	p.dxs, p.dys = capDelta(nl, p.before, kCap*nl.Region.W(), kCap*nl.Region.H(), p.dxs, p.dys)

	// Keep cells inside the placement area; the supply model pushes them
	// back anyway, clamping merely speeds that up and keeps metrics sane.
	// A NaN survives the clamp; the netlist then gets the snapshot back.
	out := nl.Region.Outline
	for ci := range nl.Cells {
		c := &nl.Cells[ci]
		if c.Fixed {
			continue
		}
		c.Pos = out.ClampCenter(c.Pos, math.Min(c.W, out.W()), math.Min(c.H, out.H()))
		if !finite(c.Pos.X) || !finite(c.Pos.Y) {
			err = fmt.Errorf("place: iteration %d: cell %d (%q) moved to (%g, %g): %w",
				p.iter, ci, c.Name, c.Pos.X, c.Pos.Y, ErrNonFinite)
			nl.Restore(p.before)
			return IterStats{}, err
		}
	}

	// Refresh the density for the stats and the stopping rule on one lane
	// while the other measures every net; the lengths are summed in net
	// order, as Netlist.HPWL sums them.
	p.accumulate = accumulateTask{grid: p.grid, nl: nl}
	p.netLengths.nl = nl
	par.Fork(&p.accumulate, &p.netLengths)
	hpwl := 0.0
	for _, l := range p.netLengths.lens {
		hpwl += l
	}
	stats := IterStats{
		Iter:            p.iter,
		HPWL:            hpwl,
		Overflow:        p.grid.Overflow(),
		EmptySquare:     p.grid.LargestEmptySquare(emptyFrac),
		MaxForce:        targetMax,
		CGIterX:         res.X.Iterations,
		CGIterY:         res.Y.Iterations,
		CGResidX:        res.X.Residual,
		CGResidY:        res.Y.Residual,
		Precond:         res.X.Precond,
		PrecondFallback: res.Fallback,
		Damping:         damping,
	}
	stats.GapProxy = stats.EmptySquare / (stopSquareFactor * p.avgArea)
	stats.Backoff = p.rs.react(p.iter, stats.Overflow, cfg.K)
	ph.TFinish = mark.Elapsed()
	stats.Phases = ph
	stats.TStep = stepStart.Elapsed()
	p.iter++
	if cfg.OnIteration != nil {
		cfg.OnIteration(stats)
	}
	return stats, err
}

// ErrNonFinite is wrapped by Step's error when a cell position, a queued
// Pull force or the density force field is NaN or infinite. The
// transformation means nothing then, so Continue ends every flow on it.
var ErrNonFinite = errors.New("non-finite value")

// finite reports whether v is neither NaN nor ±Inf: v−v is 0 for every
// finite v and NaN otherwise.
func finite(v float64) bool { return v-v == 0 }

// fieldTask computes grid's density force field into out, as a par.Task.
type fieldTask struct {
	grid *density.Grid
	out  *density.Field
}

func (t *fieldTask) Run() { t.out = density.ComputeFieldInto(t.out, t.grid, density.Auto) }

// buildTask assembles the quadratic system and brings its IC0 factor up
// to date, as a par.Task, timing each: they are the step's build and
// precond phases.
type buildTask struct {
	asm              *qp.Assembler
	sys              *qp.System
	tBuild, tPrecond time.Duration
}

func (t *buildTask) Run() {
	mark := obsv.StartTimer()
	t.sys = t.asm.Assemble()
	t.tBuild = mark.Elapsed()
	mark = obsv.StartTimer()
	t.sys.Factor()
	t.tPrecond = mark.Elapsed()
}

// accumulateTask recomputes the grid's density from nl, as a par.Task.
type accumulateTask struct {
	grid *density.Grid
	nl   *netlist.Netlist
}

func (t *accumulateTask) Run() { t.grid.Accumulate(t.nl) }

// netLengthsTask writes every net's half-perimeter wire length into lens,
// as a par.Task.
type netLengthsTask struct {
	nl   *netlist.Netlist
	lens []float64
}

func (t *netLengthsTask) Run() {
	if len(t.lens) != len(t.nl.Nets) {
		t.lens = make([]float64, len(t.nl.Nets))
	}
	for ni := range t.lens {
		t.lens[ni] = t.nl.NetHPWL(ni)
	}
}

// capDelta bounds this iteration's displacements to ~maxDX/maxDY per axis.
// The displacement field is split into its translation (mean) and
// differential parts, which fail in different ways: the translation mode is
// almost unresisted by C and can saturate (whole-design slam), while the
// differential part carries the spreading signal but can contain huge
// responses from weakly-connected outlier cells. The mean is clipped once;
// differential components are clipped per cell, so an outlier cannot crush
// everyone else's movement and a saturated translation cannot erase the
// spreading.
// dxs and dys are the displacement buffers, reused across calls: capDelta
// returns them, grown to the movable cell count.
func capDelta(nl *netlist.Netlist, before netlist.Placement, maxDX, maxDY float64, dxs, dys []float64) ([]float64, []float64) {
	movable := 0
	for ci := range nl.Cells {
		if !nl.Cells[ci].Fixed {
			movable++
		}
	}
	if cap(dxs) < movable {
		dxs = make([]float64, movable)
		dys = make([]float64, movable)
	}
	dxs, dys = dxs[:movable], dys[:movable]
	k := 0
	for ci := range nl.Cells {
		if nl.Cells[ci].Fixed {
			continue
		}
		d := nl.Cells[ci].Pos.Sub(before[ci])
		dxs[k] = d.X
		dys[k] = d.Y
		k++
	}
	if len(dxs) == 0 {
		return dxs, dys
	}
	// The translation estimate must be robust: a single near-floating cell
	// (tiny anchor stiffness) can have a displacement many orders of
	// magnitude above everyone else, and a polluted mean would cancel the
	// whole iteration after clipping. The median ignores such outliers.
	med := geom.Point{X: median(dxs), Y: median(dys)}

	shift := geom.Point{X: clip(med.X, maxDX), Y: clip(med.Y, maxDY)}
	for ci := range nl.Cells {
		if nl.Cells[ci].Fixed {
			continue
		}
		d := nl.Cells[ci].Pos.Sub(before[ci]).Sub(med)
		nl.Cells[ci].Pos = geom.Point{
			X: before[ci].X + shift.X + clip(d.X, maxDX),
			Y: before[ci].Y + shift.Y + clip(d.Y, maxDY),
		}
	}
	return dxs, dys
}

// median returns the value a full ascending sort.Float64s of v would put
// at index len(v)/2, found by selection in O(len(v)) expected time; v,
// which must be non-empty and free of NaNs, is reordered. The three-way
// partition compares with < alone, so it ranks like sort.Float64s: equal
// values, −0 and +0 among them, tie. Which of two tied zeros either puts
// at the middle is unspecified.
func median(v []float64) float64 {
	k := len(v) / 2
	lo, hi := 0, len(v)
	for hi-lo > 1 {
		// A median-of-three pivot keeps sorted and reversed input linear.
		a, b, c := v[lo], v[lo+(hi-lo)/2], v[hi-1]
		if b < a {
			a, b = b, a
		}
		if c < b {
			b = c
			if b < a {
				b = a
			}
		}
		pivot := b
		// Dutch-flag partition: [lo, lt) < pivot, [lt, i) == pivot,
		// [gt, hi) > pivot.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch x := v[i]; {
			case x < pivot:
				v[lt], v[i] = x, v[lt]
				lt++
				i++
			case pivot < x:
				gt--
				v[gt], v[i] = x, v[gt]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return v[k]
		}
	}
	return v[k]
}

// clip bounds v to [-lim, lim].
func clip(v, lim float64) float64 {
	if v > lim {
		return lim
	}
	if v < -lim {
		return -lim
	}
	return v
}

// meanStiffness returns the average cell stiffness of the system — the
// mean total spring constant a force increment must work against. It
// averages the cell rows' diagonal with the star centers eliminated, the
// clique model's diagonal, so the force normalization does not depend on
// how nets are assembled.
func meanStiffness(sys *qp.System) float64 {
	d := sys.CellStiffness()
	if len(d) == 0 {
		return 1
	}
	var s float64
	for _, v := range d {
		s += v
	}
	return s / float64(len(d))
}

// Done implements the §4.2 stopping criterion: no empty square larger than
// stopSquareFactor times the average cell area remains.
func (p *Placer) Done(last IterStats) bool {
	avg := p.nl.AvgCellArea()
	if avg <= 0 {
		return true
	}
	return last.EmptySquare <= stopSquareFactor*avg
}

// Continue is the placer's one step loop. It runs at most budget placement
// transformations from the current state, running Initialize first if it
// has not run. After each it asks stop, the flow's stop policy, whether to
// end with a StopReason; a nil stop runs the whole budget (StopMaxIter).
// ctx is checked between transformations: a cancelled or expired one ends
// the loop on StopCancelled or StopDeadline with a nil error, because every
// intermediate placement is usable. Only a solve that made no progress at
// all, or a transformation that met a non-finite value (ErrNonFinite), is
// an error. The result's Iterations counts all of the placer's
// transformations; Trace, Phases and Runtime cover this call.
func (p *Placer) Continue(ctx context.Context, budget int, stop func(IterStats) StopReason) (Result, error) {
	start := obsv.StartTimer()
	if !p.rs.started {
		if err := p.Initialize(); err != nil {
			return Result{}, fmt.Errorf("place: initial solve: %w", err)
		}
	}
	res := Result{Iterations: p.iter, HPWL: p.nl.HPWL()}
	for n := 0; n < budget && res.StopReason == ""; n++ {
		if err := ctx.Err(); err != nil {
			res.StopReason = stopReasonFor(err)
			break
		}
		stats, err := p.Step()
		if err != nil && (errors.Is(err, ErrNonFinite) || stats.CGIterX == 0 && stats.CGIterY == 0) {
			return res, err
		}
		if !p.cfg.NoTrace {
			res.Trace = append(res.Trace, stats)
		}
		res.Phases.Add(stats.Phases)
		res.Iterations, res.HPWL, res.Overflow = p.iter, stats.HPWL, stats.Overflow
		if stop != nil {
			res.StopReason = stop(stats)
		}
	}
	if res.StopReason == "" {
		res.StopReason = StopMaxIter
	}
	res.Runtime = start.Elapsed()
	return res, nil
}

// Run is Continue with the §4.2 stop policy, until MaxIter transformations
// have run in all. A placer rebuilt by Resume, or one whose previous Run
// was cancelled, continues where it stopped, so Run/cancel/Run walks the
// same sequence as one Run. A run that stops on stagnation leaves the best
// placement seen in the netlist and reports its HPWL and overflow.
func (p *Placer) Run(ctx context.Context) (Result, error) {
	budget := p.cfg.MaxIter - p.iter
	if !p.rs.started {
		budget = p.cfg.MaxIter // Initialize starts the count afresh
	}
	res, err := p.Continue(ctx, budget, p.converged)
	if res.StopReason == StopStagnation {
		res.HPWL = p.nl.HPWL()
		res.Overflow = p.rs.bestOvf
	}
	return res, err
}

// converged is Run's stop policy: the §4.2 criterion on two consecutive
// transformations (see doneStreak), or, as a safety net, stagnation of the
// overflow, which restores the best placement seen.
func (p *Placer) converged(s IterStats) StopReason {
	if s.Overflow < p.rs.bestOvf*0.99 {
		p.rs.bestOvf = s.Overflow
		p.rs.bestIter = s.Iter
		p.rs.bestSnap = p.nl.SnapshotInto(p.rs.bestSnap)
	}
	if p.Done(s) {
		p.rs.doneStreak++
		if p.rs.doneStreak >= 2 {
			return StopCriterion
		}
	} else {
		p.rs.doneStreak = 0
	}
	// Fast mode gives up on a stalled distribution much sooner.
	window := 30
	if p.cfg.K > 0.5 {
		window = 12
	}
	if s.Iter-p.rs.bestIter >= window {
		p.nl.Restore(p.rs.bestSnap)
		return StopStagnation
	}
	return ""
}

// Global is the convenience entry point: place nl with cfg and return the
// run summary.
func Global(nl *netlist.Netlist, cfg Config) (Result, error) {
	return New(nl, cfg).Run(context.Background())
}

// GlobalContext is Global with step-granular cancellation: on ctx
// cancellation or deadline the best placement so far is kept in nl and the
// result reports StopCancelled/StopDeadline instead of an error.
func GlobalContext(ctx context.Context, nl *netlist.Netlist, cfg Config) (Result, error) {
	return New(nl, cfg).Run(ctx)
}

// emptyFrac is the demand fraction of average supply below which a density
// bin counts as empty in the §4.2 empty-square measure.
const emptyFrac = 0.25

// stopSquareFactor is the §4.2 stopping criterion: placement ends when no
// empty square larger than this many average cell areas remains.
const stopSquareFactor = 4

// kickRef calibrates the force increment: the effective per-iteration kick
// is kickRef·√(K/0.2), so the paper's standard mode (K=0.2) sits at the
// wire-length-quality knee of the stable (damped) regime and the fast mode
// (K=1.0) roughly doubles the kick. Both the value and the sublinear K
// mapping were fixed by convergence/quality sweeps over the synthetic
// suite (kicks ≥ ~0.03 slosh indefinitely; kicks ≤ ~0.002 converge slowly
// with no further quality gain).
const kickRef = 0.003

// stepGrowth is the factor by which the step-control gain recovers after
// each transformation that did not overshoot (runState.react).
const stepGrowth = 1.2

// stepBackoff is the factor by which an overshoot cuts the step-control
// gain: one half in the standard mode (K=0.2), with the exponent √(0.2/K)
// mirroring the kick's √(K/0.2), so the fast mode (K=1, ×0.73) trades
// more residual overshoot for fewer transformations and a gentle ECO
// run (K=0.1, ×0.38) settles sooner. The constants were picked on the
// netgen 2k and 5k designs and the fast-mode comparison (EXPERIMENTS
// E25).
func stepBackoff(k float64) float64 { return math.Pow(0.5, math.Sqrt(0.2/k)) }
