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
	"sort"
	"strings"
	"time"

	"repro/internal/check"
	"repro/internal/density"
	"repro/internal/fft"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/obsv"
	"repro/internal/qp"
	"repro/internal/sparse"
)

// Config controls the iterative algorithm. The zero value is the paper's
// standard mode.
type Config struct {
	// K is the user parameter of §4.1: each transformation's maximum force
	// increment equals the force of a net with length K·(W+H). 0.2 is the
	// paper's standard mode, 1.0 the fast mode. Defaults to 0.2.
	K float64
	// MaxIter caps the number of placement transformations. Defaults
	// to 300.
	MaxIter int
	// GridBins is the density grid resolution per axis (power of two
	// recommended). 0 picks automatically from the design size.
	GridBins int
	// NoLinearize disables the [14] net-weight linearization, making the
	// solve purely quadratic.
	NoLinearize bool
	// KeepPlacement starts from the netlist's current positions instead of
	// gathering all cells at the region center. Used by ECO.
	KeepPlacement bool
	// StopSquareFactor is the stopping criterion multiple: iteration ends
	// when no empty square larger than this many average cell areas
	// remains (§4.2). Defaults to 4.
	StopSquareFactor float64
	// EmptyFrac is the demand fraction of average supply below which a
	// density bin counts as empty. Defaults to 0.25.
	EmptyFrac float64
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
	// ForceFloor zeroes force increments whose magnitude is below this
	// fraction of the field maximum. ECO uses it so only the surroundings
	// of a netlist change move, leaving the converged remainder untouched.
	ForceFloor float64
	// NoTrace suppresses Result.Trace accumulation in Run, so long
	// MaxIter runs on large designs don't retain O(iterations) stats the
	// caller never reads. Per-run aggregates (Result.Phases, HPWL,
	// Overflow, Iterations) are still filled, and OnIteration still fires.
	NoTrace bool
	// Spans, when set, receives one "place/<key>" span recording per
	// PhaseKeys entry for every placement transformation. Nil costs
	// nothing.
	Spans *obsv.Spans
	// Metrics, when set, receives the run's counters and gauges
	// (place_transformations_total, place_hpwl, place_overflow,
	// place_step_seconds). Nil costs nothing.
	Metrics *obsv.Registry
}

func (c *Config) setDefaults(nl *netlist.Netlist) {
	if c.K <= 0 {
		c.K = 0.2
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 300
	}
	if c.StopSquareFactor <= 0 {
		c.StopSquareFactor = 4
	}
	if c.EmptyFrac <= 0 {
		c.EmptyFrac = 0.25
	}
	if c.CG.Tol <= 0 {
		// Placement transformations tolerate a loose solve; the next
		// iteration corrects any residual.
		c.CG.Tol = 1e-6
	}
	if c.GridBins <= 0 {
		n := nl.NumMovable()
		b := int(math.Sqrt(float64(n)))
		if c.K > 0.5 {
			// Fast mode trades field resolution for speed.
			b /= 2
		}
		c.GridBins = fft.NextPow2(b)
		if c.GridBins < 8 {
			c.GridBins = 8
		}
		if c.GridBins > 256 {
			c.GridBins = 256
		}
	}
}

// gridDims splits the bin budget across the axes proportionally to the
// region aspect ratio so bins stay roughly square even on wide row regions.
func gridDims(nl *netlist.Netlist, bins int) (nx, ny int) {
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
	// (StopSquareFactor × average cell area): a dimensionless
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

	// Phases is embedded, so its t_*_ns keys follow cg_resid_y at the
	// top level of the trace record.
	Phases
}

// Phases holds the per-phase wall times of one transformation (IterStats)
// or their sums over a run (Result.Phases). It declares the phase schema
// once: its JSON tags are the trace keys, and PhaseKeys, the span names and
// every per-phase breakdown derive from its fields. The x/y solves are one
// concurrent phase, so the phases before TStep are sequential and sum to
// at most TStep.
type Phases struct {
	TWeight    time.Duration `json:"t_weight_ns"`     // BeforeTransform (net-weight update)
	TGather    time.Duration `json:"t_gather_ns"`     // density accumulation (fine + coarse grids)
	TField     time.Duration `json:"t_field_ns"`      // Poisson force-field evaluation
	TBuild     time.Duration `json:"t_build_ns"`      // quadratic system assembly
	TPrecond   time.Duration `json:"t_precond_ns"`    // preconditioner set-up (the IC0 refactor)
	TSolvePair time.Duration `json:"t_solve_pair_ns"` // wall time of the concurrent x/y solve pair
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

// add accumulates q into p, phase by phase.
func (p *Phases) add(q Phases) {
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
	// StopStagnation means no coarse-overflow progress for a window; the
	// best placement seen is restored.
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
	Converged  bool
	// StopReason is one of the Stop* constants: "criterion" (the paper's
	// empty-square rule), "stagnation" (no coarse-overflow progress for a
	// window), "max-iter", or the externally imposed "cancelled" /
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
	coarse  *density.Grid // ~6 cells per bin; drives damping and metrics
	forces  []geom.Point  // accumulated additional forces e (one per cell)
	pending []geom.Point  // externally queued forces for the next Step
	iter    int
	met     placeMetrics
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
	// position snapshot, and capDelta's displacement sort buffers.
	inc      []geom.Point
	before   netlist.Placement
	dxs, dys []float64

	// rs is the Run loop's progress state. It lives on the Placer (rather
	// than in Run's frame) so Checkpoint can capture it and Resume can
	// restore it: a resumed run must make the same stop/restore decisions
	// an uninterrupted run would have made.
	rs runState
}

// runState is the mutable state of the Run loop between transformations.
type runState struct {
	// started is set once Initialize has run, so a resumed or re-entered
	// Run continues instead of re-gathering all cells at the center.
	started bool
	// doneStreak counts consecutive iterations meeting the §4.2 criterion
	// (two are required, because the empty-square measure dips transiently
	// while the placement sloshes).
	doneStreak int
	// bestOvf/bestIter/bestSnap track the best (lowest-overflow) placement
	// seen, restored when the run stops on stagnation.
	bestOvf  float64
	bestIter int
	bestSnap netlist.Placement
}

// placeMetrics caches the registry handles resolved once in New; all are
// nil (free no-ops) when Config.Metrics is unset.
type placeMetrics struct {
	steps       *obsv.Counter
	hpwl        *obsv.Gauge
	overflow    *obsv.Gauge
	stepSeconds *obsv.Histogram
}

func newPlaceMetrics(r *obsv.Registry) placeMetrics {
	if r == nil {
		return placeMetrics{}
	}
	return placeMetrics{
		steps:       r.Counter("place_transformations_total", "placement transformations executed"),
		hpwl:        r.Gauge("place_hpwl", "current half-perimeter wire length in layout units"),
		overflow:    r.Gauge("place_overflow", "current density overflow fraction"),
		stepSeconds: r.Histogram("place_step_seconds", "placement transformation wall time in seconds", obsv.SecondsBuckets),
	}
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
	cfg.setDefaults(nl)
	nx, ny := gridDims(nl, cfg.GridBins)
	// The coarse grid holds ~6 average cells per bin: at that granularity
	// an evenly spread placement has near-zero overflow, so the coarse
	// overflow measures genuine clumping rather than cell quantization.
	avg := nl.AvgCellArea()
	if avg <= 0 {
		avg = 1
	}
	binSide := math.Sqrt(6 * avg / math.Max(nl.Utilization(), 0.1))
	cnx := int(nl.Region.W()/binSide) + 1
	cny := int(nl.Region.H()/binSide) + 1
	if cnx < 2 {
		cnx = 2
	}
	if cny < 2 {
		cny = 2
	}
	p := &Placer{
		nl:      nl,
		cfg:     cfg,
		grid:    density.NewGrid(nl.Region.Outline, nx, ny),
		coarse:  density.NewGrid(nl.Region.Outline, cnx, cny),
		forces:  make([]geom.Point, len(nl.Cells)),
		met:     newPlaceMetrics(cfg.Metrics),
		avgArea: avg,
		asm:     qp.NewAssembler(nl, qp.Options{Linearize: !cfg.NoLinearize}),
	}
	return p
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
// existing placement is kept as the equilibrium instead.
func (p *Placer) Initialize() error {
	p.iter = 0
	for i := range p.forces {
		p.forces[i] = geom.Point{}
	}
	p.warmDX, p.warmDY = nil, nil
	p.rs = runState{started: true, bestOvf: math.Inf(1)}
	if p.cfg.KeepPlacement {
		p.rs.bestSnap = p.nl.Snapshot()
		return nil
	}
	c := p.nl.Region.Outline.Center()
	for i := range p.nl.Cells {
		if !p.nl.Cells[i].Fixed {
			p.nl.Cells[i].Pos = c
		}
	}
	sys := p.asm.Assemble()
	_, err := sys.Solve(nil, p.cfg.CG)
	p.rs.bestSnap = p.nl.Snapshot()
	return err
}

// Step performs one placement transformation (§4.1): determine the density
// forces of the current placement, accumulate them into e, and solve the
// extended quadratic system.
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
	mark := obsv.StartTimer()
	if cfg.ExtraDemand != nil {
		p.grid.SetExtra(cfg.ExtraDemand(p.grid))
	}
	p.grid.Accumulate(nl)
	ph.TGather = mark.Elapsed()
	check.DensityBalanced("place/step grid", p.grid, 1e-6)

	mark = obsv.StartTimer()
	field := density.ComputeField(p.grid, density.Auto)
	ph.TField = mark.Elapsed()
	check.Finite("place/step field FX", field.FX)
	check.Finite("place/step field FY", field.FY)

	// Assemble the (possibly re-linearized) quadratic system; the force
	// normalization depends on its stiffness.
	mark = obsv.StartTimer()
	sys := p.asm.Assemble()
	ph.TBuild = mark.Elapsed()
	check.Symmetric("place/step C", sys.C, 1e-8)
	check.SPDHint("place/step C", sys.C, 1e-8)

	// Force increment normalization (§4.1): the strongest field force is
	// scaled to the pull of a net of length K·(W+H). Two refinements over
	// a literal reading: the maximum is taken over the whole field (at the
	// all-cells-at-one-point start the field at the cells themselves is
	// nearly zero, and normalizing by it would amplify the common-mode
	// translation instead of spreading the blob), and the "net" strength
	// is the current mean spring stiffness, so a force increment displaces
	// an average cell by about K·(W+H) regardless of how the linearization
	// has re-weighted the springs.
	// Damping: the per-transformation renormalization alone makes the
	// iteration a driven oscillator (full-strength kicks continue after
	// the density has flattened). Attenuate by the coarse-grid overflow —
	// the fraction of cell area still genuinely clumped — so kicks decay
	// to near zero as the distribution evens out.
	mark = obsv.StartTimer()
	p.coarse.Accumulate(nl)
	ph.TGather += mark.Elapsed()
	atten := math.Min(1, p.coarse.Overflow()/0.2)
	if atten < 0.02 {
		atten = 0.02
	}

	maxMag := field.MaxMagnitude()
	kick := kickRef * math.Sqrt(cfg.K/0.2)
	targetMax := kick * (nl.Region.W() + nl.Region.H()) * meanStiffness(sys)
	scale := 0.0
	if maxMag > 0 {
		scale = atten * targetMax / maxMag
	}
	if len(p.inc) != len(nl.Cells) {
		p.inc = make([]geom.Point, len(nl.Cells))
	}
	inc := p.inc
	for ci := range inc {
		inc[ci] = geom.Point{}
	}
	floor := cfg.ForceFloor * maxMag
	for ci := range nl.Cells {
		if nl.Cells[ci].Fixed {
			continue
		}
		f := field.At(nl.Cells[ci].Pos)
		if f.Norm() < floor {
			continue
		}
		inc[ci] = f.Scale(scale)
		p.forces[ci] = p.forces[ci].Add(inc[ci]) // accumulated e, for observers
	}

	// Fold in externally injected forces (timing-driven net-weight pulls,
	// queued via Pull), normalized to the same per-iteration budget as the
	// density kick so compounding net weights cannot blow the iteration up.
	if p.pending != nil {
		var maxPull float64
		for ci := range p.pending {
			if m := p.pending[ci].Norm(); m > maxPull {
				maxPull = m
			}
		}
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

	// Apply the transformation: starting from the previous equilibrium,
	// growing e by the increment moves the solution of C·p + d + e = 0 by
	// exactly δ = C⁻¹·inc (eq. 3, incremental form). Cells move slowly
	// between transformations, so the previous transformation's displacement
	// response is a good CG starting guess for this one; SolveDeltaFrom
	// overwrites the guess with the new response, priming the next iteration.
	p.before = nl.SnapshotInto(p.before)
	before := p.before
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

	// Per-axis trust region: K also bounds how far one transformation may
	// move any cell (K·W horizontally, K·H vertically, saturating at 45 %
	// of the axis so even K=1 cannot slam the design wall-to-wall). The
	// translation (common) mode of C is nearly unconstrained — only pads
	// and anchors resist it — so an almost-uniform force (e.g. the
	// interpolation residue of a single-bin blob at startup) would
	// otherwise throw the whole design across the chip in one step; on
	// strongly non-square regions the short axis needs its own bound.
	kCap := math.Min(cfg.K, 0.45)
	p.dxs, p.dys = capDelta(nl, before, kCap*nl.Region.W(), kCap*nl.Region.H(), p.dxs, p.dys)
	if err != nil {
		// An unconverged CG still yields a usable iterate; report but
		// continue (placement quality, not solver perfection, is the goal).
		err = fmt.Errorf("place: iteration %d: %w", p.iter, err)
	}

	// Keep cells inside the placement area; the supply model pushes them
	// back anyway, clamping merely speeds that up and keeps metrics sane.
	out := nl.Region.Outline
	for ci := range nl.Cells {
		c := &nl.Cells[ci]
		if c.Fixed {
			continue
		}
		c.Pos = out.ClampCenter(c.Pos, math.Min(c.W, out.W()), math.Min(c.H, out.H()))
	}

	check.CellsFinite("place/step positions", nl)
	mark = obsv.StartTimer()
	p.grid.Accumulate(nl) // refresh density for stats/stopping
	ph.TGather += mark.Elapsed()
	stats := IterStats{
		Iter:            p.iter,
		HPWL:            nl.HPWL(),
		Overflow:        p.grid.Overflow(),
		EmptySquare:     p.grid.LargestEmptySquare(cfg.EmptyFrac),
		MaxForce:        targetMax,
		CGIterX:         res.X.Iterations,
		CGIterY:         res.Y.Iterations,
		CGResidX:        res.X.Residual,
		CGResidY:        res.Y.Residual,
		Precond:         res.X.Precond,
		PrecondFallback: res.Fallback,
		Phases:          ph,
	}
	stats.GapProxy = stats.EmptySquare / (cfg.StopSquareFactor * p.avgArea)
	stats.TPrecond = res.PrecondWall
	stats.TSolvePair = res.PairWall
	stats.TStep = stepStart.Elapsed()
	p.iter++
	if sp := cfg.Spans; sp != nil {
		stats.Phases.Each(func(k string, d time.Duration) { sp.Record("place/"+k, d) })
	}
	p.met.steps.Inc()
	p.met.hpwl.Set(stats.HPWL)
	p.met.overflow.Set(stats.Overflow)
	p.met.stepSeconds.Observe(stats.TStep.Seconds())
	if cfg.OnIteration != nil {
		cfg.OnIteration(stats)
	}
	return stats, err
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
// The caller passes (and re-receives) the two sort buffers so the
// steady-state iteration reuses them instead of allocating per call.
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
	sort.Float64s(dxs)
	sort.Float64s(dys)
	med := geom.Point{X: dxs[len(dxs)/2], Y: dys[len(dys)/2]}

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
// StopSquareFactor times the average cell area remains.
func (p *Placer) Done(last IterStats) bool {
	avg := p.nl.AvgCellArea()
	if avg <= 0 {
		return true
	}
	return last.EmptySquare <= p.cfg.StopSquareFactor*avg
}

// Run iterates Step until the stopping criterion, MaxIter, or ctx is done,
// checking ctx between transformations (step granularity). On the first
// call it runs Initialize; a placer reconstructed by Resume — or a placer
// whose previous Run was cancelled — continues from where it stopped, so
// Run/cancel/Run and an uninterrupted Run walk the identical iteration
// sequence.
//
// Cancellation is not an error: because every intermediate placement is
// usable, a cancelled or deadline-expired run returns the best placement
// reached so far with StopReason set to StopCancelled or StopDeadline and
// a nil error. Solver non-convergence is likewise tolerated; only
// structural errors (a solve that made no progress at all) abort.
func (p *Placer) Run(ctx context.Context) (Result, error) {
	start := obsv.StartTimer()
	var res Result
	if !p.rs.started {
		if err := p.Initialize(); err != nil {
			return res, fmt.Errorf("place: initial solve: %w", err)
		}
	}
	res.Iterations = p.iter
	res.HPWL = p.nl.HPWL()
	// Fast mode gives up on a stalled distribution much sooner.
	stagnationWindow := 30
	if p.cfg.K > 0.5 {
		stagnationWindow = 12
	}
	for p.iter < p.cfg.MaxIter {
		if err := ctx.Err(); err != nil {
			res.StopReason = stopReasonFor(err)
			break
		}
		it := p.iter
		stats, err := p.Step()
		if err != nil && stats.CGIterX == 0 && stats.CGIterY == 0 {
			// A solve that made no progress at all is fatal.
			return res, err
		}
		if !p.cfg.NoTrace {
			res.Trace = append(res.Trace, stats)
		}
		res.Phases.add(stats.Phases)
		res.Iterations = p.iter
		res.HPWL = stats.HPWL
		res.Overflow = stats.Overflow
		if stats.Overflow < p.rs.bestOvf*0.99 {
			p.rs.bestOvf = stats.Overflow
			p.rs.bestIter = it
			p.rs.bestSnap = p.nl.Snapshot()
		}
		// The empty-square measure can dip transiently while the placement
		// still sloshes; require the criterion on consecutive iterations.
		if p.Done(stats) {
			p.rs.doneStreak++
			if p.rs.doneStreak >= 2 {
				res.Converged = true
				res.StopReason = StopCriterion
				break
			}
		} else {
			p.rs.doneStreak = 0
		}
		// Secondary stop: the distribution stopped improving; keep the best
		// placement seen instead of whatever the last slosh produced.
		if it-p.rs.bestIter >= stagnationWindow {
			p.nl.Restore(p.rs.bestSnap)
			res.Converged = true
			res.StopReason = StopStagnation
			res.HPWL = p.nl.HPWL()
			res.Overflow = p.rs.bestOvf
			break
		}
	}
	if res.StopReason == "" {
		res.StopReason = StopMaxIter
	}
	res.Runtime = start.Elapsed()
	return res, nil
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

// kickRef calibrates the force increment: the effective per-iteration kick
// is kickRef·√(K/0.2), so the paper's standard mode (K=0.2) sits at the
// wire-length-quality knee of the stable (damped) regime and the fast mode
// (K=1.0) roughly doubles the kick. Both the value and the sublinear K
// mapping were fixed by convergence/quality sweeps over the synthetic
// suite (kicks ≥ ~0.03 slosh indefinitely; kicks ≤ ~0.002 converge slowly
// with no further quality gain).
const kickRef = 0.003
