// Package placement is a generic global placement and floorplanning
// library — a from-scratch reproduction of H. Eisenmann and F. M. Johannes,
// "Generic Global Placement and Floorplanning", DAC 1998 (the original
// Kraftwerk force-directed analytical placer).
//
// The core algorithm extends the classic quadratic (spring) wire-length
// formulation with additional forces derived from the cell-density
// deviation over the placement area: Poisson's equation turns the density
// into a conservative force field, and each placement transformation
// perturbs the equilibrium C·p + d + e = 0 by the accumulated field forces.
// No hard constraint is ever imposed, which lets one engine handle standard
// cell placement, mixed block/cell floorplanning, timing optimization with
// guaranteed requirement meeting, congestion- and heat-driven placement,
// and incremental ECO.
//
// Quick start:
//
//	b := placement.NewBuilder("demo", placement.NewRegion(10, 1, 50))
//	b.AddPad("in", placement.Pt(0, 5))
//	b.AddCell("u1", 2, 1)
//	b.Connect("n1", "in", "u1")
//	nl, _ := b.Build()
//	placement.Global(nl, placement.Config{})
//	placement.Legalize(nl, placement.LegalizeOptions{})
//	fmt.Println(nl.HPWL())
//
// The subpackage structure mirrors the paper: the quadratic system (§2),
// the density force field (§3), the iterative algorithm (§4), and the §5
// applications each live in their own internal package; this package is the
// public surface.
package placement

import (
	"context"
	"io"

	"repro/internal/anneal"
	"repro/internal/density"
	"repro/internal/eco"
	"repro/internal/fft"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/gordian"
	"repro/internal/legalize"
	"repro/internal/netgen"
	"repro/internal/netlist"
	"repro/internal/obsv"
	"repro/internal/place"
	"repro/internal/serve"
	"repro/internal/sparse"
	"repro/internal/timing"
)

// Geometry primitives.
type (
	// Point is a position in layout units.
	Point = geom.Point
	// Rect is an axis-aligned rectangle.
	Rect = geom.Rect
	// Region is the placement area (outline plus standard-cell rows).
	Region = geom.Region
)

// Pt is shorthand for Point{X: x, Y: y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// NewRegion builds a placement region of nRows rows of the given height and
// width.
func NewRegion(nRows int, rowHeight, width float64) Region {
	return geom.NewRegion(nRows, rowHeight, width)
}

// Netlist model.
type (
	// Netlist is a complete placement problem.
	Netlist = netlist.Netlist
	// Cell is a placeable element (standard cell, macro block, or pad).
	Cell = netlist.Cell
	// Net connects pins.
	Net = netlist.Net
	// Pin is one connection point.
	Pin = netlist.Pin
	// Builder assembles netlists by name.
	Builder = netlist.Builder
	// Stats summarizes a netlist.
	Stats = netlist.Stats
	// Placement is a positions snapshot.
	Placement = netlist.Placement
)

// Pin directions.
const (
	Input  = netlist.Input
	Output = netlist.Output
	Inout  = netlist.Inout
)

// NewBuilder starts a netlist for the given region.
func NewBuilder(name string, region Region) *Builder {
	return netlist.NewBuilder(name, region)
}

// ReadNetlist parses the text interchange format.
func ReadNetlist(r io.Reader) (*Netlist, error) { return netlist.Read(r) }

// WriteNetlist serializes a netlist in the text interchange format.
func WriteNetlist(w io.Writer, nl *Netlist) error { return netlist.Write(w, nl) }

// LoadBookshelf reads a GSRC/ISPD Bookshelf design from its .aux file.
func LoadBookshelf(auxPath string) (*Netlist, error) { return netlist.LoadBookshelf(auxPath) }

// ReadBookshelf assembles a netlist from Bookshelf streams (scl may be
// nil).
func ReadBookshelf(name string, nodes, nets, pl, scl io.Reader) (*Netlist, error) {
	return netlist.ReadBookshelf(name, nodes, nets, pl, scl)
}

// WriteBookshelf emits the design as the four Bookshelf streams.
func WriteBookshelf(nl *Netlist, nodes, nets, pl, scl io.Writer) error {
	return netlist.WriteBookshelf(nl, nodes, nets, pl, scl)
}

// ComputeStats gathers netlist statistics.
func ComputeStats(nl *Netlist) Stats { return netlist.ComputeStats(nl) }

// Core Kraftwerk engine (§4).
type (
	// Config controls the iterative force-directed algorithm. The zero
	// value is the paper's standard mode (K = 0.2).
	Config = place.Config
	// Result summarizes a global placement run.
	Result = place.Result
	// Placer exposes stepwise control over the iteration.
	Placer = place.Placer
	// IterStats describes one placement transformation.
	IterStats = place.IterStats
	// Phases holds per-phase wall times of one transformation or a run.
	Phases = place.Phases
	// StopReason says why a run ended (one of the Stop* constants).
	StopReason = place.StopReason
)

// Stop reasons a Result can report. Criterion, stagnation and max-iter
// end a run on the algorithm's own terms; cancelled and deadline are
// externally imposed via GlobalContext / Placer.Run and leave the best
// placement so far in the netlist with a nil error.
const (
	StopCriterion  = place.StopCriterion
	StopStagnation = place.StopStagnation
	StopMaxIter    = place.StopMaxIter
	StopCancelled  = place.StopCancelled
	StopDeadline   = place.StopDeadline
)

// Solver engine types. Config.CG sets the CG tolerance and iteration
// cap; the solves always precondition with IC0, and IterStats.Precond
// reports PrecondJacobi only when that factorization broke down.
type (
	// CGOptions configures the conjugate-gradient linear solver.
	CGOptions = sparse.CGOptions
	// Preconditioner names the preconditioner a solve applied.
	Preconditioner = sparse.Preconditioner
)

// Preconditioners IterStats.Precond can report.
const (
	PrecondJacobi = sparse.Jacobi
	PrecondIC0    = sparse.IC0
)

// Global runs force-directed global placement on nl (§4.2), mutating cell
// positions in place.
func Global(nl *Netlist, cfg Config) (Result, error) { return place.Global(nl, cfg) }

// GlobalContext is Global with step-granular cancellation: when ctx is
// cancelled or its deadline expires, the run stops at the next placement
// transformation and returns the best placement so far with
// Result.StopReason set to StopCancelled or StopDeadline — not an error,
// since any prefix of the iteration is a valid placement.
func GlobalContext(ctx context.Context, nl *Netlist, cfg Config) (Result, error) {
	return place.GlobalContext(ctx, nl, cfg)
}

// NewPlacer prepares a stepwise placer (call Initialize, then Step).
func NewPlacer(nl *Netlist, cfg Config) *Placer { return place.New(nl, cfg) }

// Checkpoint / resume: a Placer's full iteration state (positions,
// iteration counter, accumulated forces, net weights, solver warm state)
// serializes to a versioned JSON snapshot; resuming continues
// bit-compatibly with a run that was never interrupted.
type Checkpoint = place.Checkpoint

// CheckpointVersion is the snapshot schema version written by
// Placer.Checkpoint.
const CheckpointVersion = place.CheckpointVersion

// DecodeCheckpoint reads and validates a snapshot; truncated or corrupted
// input errors, never panics.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) { return place.DecodeCheckpoint(r) }

// Resume reconstructs a warm placer from a snapshot taken by
// Placer.Checkpoint on the same design under the same Config.
func Resume(nl *Netlist, cfg Config, ck *Checkpoint) (*Placer, error) {
	return place.Resume(nl, cfg, ck)
}

// Serving layer: a bounded job queue over a placement worker pool with
// backpressure (ErrJobQueueFull), per-job deadlines that degrade
// gracefully to the best placement so far, cancellation, panic isolation,
// and checkpoint-on-drain shutdown. cmd/kserved is the HTTP daemon over
// the same types.
type (
	// ServeConfig sizes a placement Server.
	ServeConfig = serve.Config
	// Server is the placement service.
	Server = serve.Server
	// Job is one submitted placement job.
	Job = serve.Job
	// JobRequest describes a job to submit.
	JobRequest = serve.JobRequest
	// JobStatus is a point-in-time job snapshot.
	JobStatus = serve.Status
	// JobState is a job's lifecycle position.
	JobState = serve.State
)

// Job lifecycle states.
const (
	JobQueued    = serve.StateQueued
	JobRunning   = serve.StateRunning
	JobDone      = serve.StateDone
	JobCancelled = serve.StateCancelled
	JobFailed    = serve.StateFailed
)

// Serving errors.
var (
	// ErrJobQueueFull is returned by Server.Submit under backpressure.
	ErrJobQueueFull = serve.ErrQueueFull
	// ErrServerDraining is returned by Server.Submit during shutdown.
	ErrServerDraining = serve.ErrDraining
)

// NewServer starts a placement service; call Server.Shutdown to drain it.
// Server.Handler exposes the HTTP API kserved serves.
func NewServer(cfg ServeConfig) *Server { return serve.New(cfg) }

// Observability (spans, metrics, run traces). Set Config.Spans /
// Config.Metrics / Config.OnIteration to observe a run; all sinks are
// nil-safe and cost nothing when absent.
type (
	// Spans aggregates named phase timings (count, total, min, max).
	Spans = obsv.Spans
	// PhaseStat is one phase's aggregate in a Spans snapshot.
	PhaseStat = obsv.PhaseStat
	// MetricsRegistry holds counters, gauges, and histograms and encodes
	// them as Prometheus text or JSON; it is an http.Handler.
	MetricsRegistry = obsv.Registry
	// TraceWriter streams JSONL run-trace records.
	TraceWriter = obsv.TraceWriter
)

// NewSpans returns an empty phase-span aggregator.
func NewSpans() *Spans { return obsv.NewSpans() }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obsv.NewRegistry() }

// NewTraceWriter wraps w as a JSONL run-trace sink.
func NewTraceWriter(w io.Writer) *TraceWriter { return obsv.NewTraceWriter(w) }

// OpenTrace creates (or truncates) a JSONL run-trace file.
func OpenTrace(path string) (*TraceWriter, error) { return obsv.OpenTrace(path) }

// EnableSolverMetrics registers the solver-level instruments (CG solves,
// iterations, residuals; density-field and FFT timings) on reg. Call once
// before placing; pass the same registry as Config.Metrics for the
// placement-level instruments.
func EnableSolverMetrics(reg *MetricsRegistry) {
	sparse.EnableMetrics(reg)
	density.EnableMetrics(reg)
	fft.EnableMetrics(reg)
}

// Legalization / final placement (the Domino role, §6.1).
type (
	// LegalizeOptions controls legalization and detailed improvement.
	LegalizeOptions = legalize.Options
	// LegalizeResult summarizes a legalization.
	LegalizeResult = legalize.Result
)

// Legalize snaps a global placement into legal rows and runs the detailed
// improvement pass.
func Legalize(nl *Netlist, opts LegalizeOptions) (LegalizeResult, error) {
	return legalize.Legalize(nl, opts)
}

// Timing (§5).
type (
	// TimingParams carries the electrical constants (defaults are the
	// paper's 242 pF/m and 25.5 kΩ/m).
	TimingParams = timing.Params
	// TimingReport is one longest-path analysis.
	TimingReport = timing.Report
	// TimingResult summarizes a timing-driven placement.
	TimingResult = timing.DrivenResult
	// MeetResult summarizes a meet-requirements run, including the
	// timing/area tradeoff curve.
	MeetResult = timing.MeetResult
	// TradeoffPoint is one step of the tradeoff curve.
	TradeoffPoint = timing.TradeoffPoint
)

// DefaultTimingParams returns the paper's timing constants.
func DefaultTimingParams() TimingParams { return timing.DefaultParams() }

// CalibratedTimingParams returns the paper's constants with the layout-unit
// size chosen so the chip spans a fixed physical size (≈6 cm): wire delay
// then matters at every circuit scale, as on the paper's real designs.
func CalibratedTimingParams(nl *Netlist) TimingParams { return timing.Calibrated(nl) }

// AnalyzeTiming runs a longest-path analysis at the current placement.
func AnalyzeTiming(nl *Netlist, p TimingParams) TimingReport {
	return timing.NewAnalyzer(nl, p).Analyze()
}

// TimingLowerBound returns the zero-wire-length longest path (§6.2).
func TimingLowerBound(nl *Netlist, p TimingParams) float64 {
	return timing.LowerBound(nl, p)
}

// WriteTimingReport renders a human-readable timing report (summary,
// critical path, slack histogram).
func WriteTimingReport(w io.Writer, nl *Netlist, p TimingParams, rep TimingReport) {
	timing.WriteReport(w, nl, p, rep)
}

// GlobalTimingDriven places nl with the iterative criticality-based net
// weighting of §5.
func GlobalTimingDriven(nl *Netlist, cfg Config, p TimingParams) (TimingResult, error) {
	return timing.PlaceDriven(nl, cfg, p, 0)
}

// MeetTiming runs the two-phase flow of §5: an area-optimized placement
// followed by weight-adapted transformations until the longest path drops
// under req (seconds). The returned curve is the timing/area tradeoff.
func MeetTiming(nl *Netlist, cfg Config, p TimingParams, req float64) (MeetResult, error) {
	return timing.MeetRequirement(nl, cfg, p, req, 0)
}

// Floorplanning (§5).
type (
	// FloorplanConfig controls mixed block/cell floorplanning.
	FloorplanConfig = floorplan.Config
	// FloorplanResult summarizes a floorplanning run.
	FloorplanResult = floorplan.Result
)

// Floorplan runs mixed block/cell placement with flexible-block reshaping
// and legalization.
func Floorplan(nl *Netlist, cfg FloorplanConfig) (FloorplanResult, error) {
	return floorplan.Run(nl, cfg)
}

// ECO (§5).
type (
	// ECOChange is one netlist edit.
	ECOChange = eco.Change
	// ECOResize is a gate-resizing edit.
	ECOResize = eco.Resize
	// ECOResult summarizes an incremental placement.
	ECOResult = eco.Result
)

// ApplyECO performs netlist edits on a placed design, seeding new cells
// near their connectivity.
func ApplyECO(nl *Netlist, changes []ECOChange) ([]int, error) {
	return eco.Apply(nl, changes)
}

// ReplaceECO incrementally re-places after edits with density-deviation
// forces only; preEdit is the snapshot from before ApplyECO.
func ReplaceECO(nl *Netlist, preEdit Placement, cfg Config) (ECOResult, error) {
	return eco.Replace(nl, preEdit, cfg)
}

// Comparison engines (§6 baselines).
type (
	// AnnealConfig controls the TimberWolf-style annealer.
	AnnealConfig = anneal.Config
	// AnnealResult summarizes an annealing run.
	AnnealResult = anneal.Result
	// GordianConfig controls the GORDIAN-style placer.
	GordianConfig = gordian.Config
	// GordianResult summarizes a GORDIAN run.
	GordianResult = gordian.Result
)

// Annealing effort presets.
const (
	AnnealMedium = anneal.Medium
	AnnealHigh   = anneal.High
)

// GlobalAnneal places with the simulated-annealing baseline.
func GlobalAnneal(nl *Netlist, cfg AnnealConfig) (AnnealResult, error) {
	return anneal.Place(nl, cfg)
}

// GlobalGordian places with the recursive-partitioning baseline.
func GlobalGordian(nl *Netlist, cfg GordianConfig) (GordianResult, error) {
	return gordian.Place(nl, cfg)
}

// Synthetic benchmark generation (the MCNC-suite substitution; DESIGN.md §3).
type (
	// GenConfig describes a synthetic circuit.
	GenConfig = netgen.Config
	// SuiteCircuit identifies a circuit of the paper's Table 1 suite.
	SuiteCircuit = netgen.Circuit
)

// MCNCSuite lists the paper's nine benchmark circuits.
func MCNCSuite() []SuiteCircuit { return netgen.MCNCSuite }

// Generate builds a synthetic circuit.
func Generate(cfg GenConfig) *Netlist { return netgen.Generate(cfg) }

// GenerateSuite builds one suite circuit at the given scale.
func GenerateSuite(c SuiteCircuit, scale float64, seed int64) *Netlist {
	return netgen.GenerateSuite(c, scale, seed)
}

// ScatterRandom places movable cells uniformly at random (baseline start).
func ScatterRandom(nl *Netlist, seed int64) { netgen.ScatterRandom(nl, seed) }
