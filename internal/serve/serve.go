// Package serve is the placement serving layer: a bounded job queue in
// front of a worker pool that runs global placements with per-job
// deadlines, cancellation, panic isolation, and checkpoint-on-drain
// shutdown.
//
// The design exploits the paper's central robustness property: the
// iterative loop can stop after any transformation and still hold a usable
// placement (§4's stopping criterion is a quality threshold, not a
// structural requirement). A job whose deadline expires therefore returns
// the best placement reached so far — graceful degradation — rather than
// an error; a job cancelled during shutdown serializes a place.Checkpoint
// so a later process can Resume it bit-compatibly.
//
// Backpressure is explicit: Submit rejects with ErrQueueFull when the
// queue is at capacity (the HTTP layer turns that into 429), so heavy
// traffic degrades by shedding load instead of by unbounded queueing.
package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/netlist"
	"repro/internal/obsv"
	"repro/internal/par"
	"repro/internal/place"
)

// Submission errors.
var (
	// ErrQueueFull reports a submission rejected by backpressure.
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining reports a submission during shutdown.
	ErrDraining = errors.New("serve: server draining")
)

// Config sizes and wires a Server. The zero value serves with
// GOMAXPROCS workers, a 16-deep queue, no default deadline, and no
// checkpoint directory.
type Config struct {
	// Workers is the number of placements run concurrently. Defaults to
	// runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds the number of jobs waiting to start; submissions
	// beyond it fail with ErrQueueFull. Defaults to 16.
	QueueDepth int
	// DefaultDeadline applies to jobs that do not set their own. Zero
	// means no deadline.
	DefaultDeadline time.Duration
	// CheckpointDir, when non-empty, receives one <job-id>.ckpt snapshot
	// per in-flight job cancelled by Shutdown, so a restarted daemon (or
	// kplace -resume) can continue them.
	CheckpointDir string
	// Metrics, when set, receives the serving instruments
	// (serve_jobs_*_total, serve_queue_depth, serve_job_seconds). When
	// nil the server creates a private registry; either way /metrics
	// serves it.
	Metrics *obsv.Registry
	// Now injects the wall clock for job timestamps; cmd/kserved passes
	// time.Now. Nil falls back to the real clock.
	Now func() time.Time
	// SLO, when positive, is the per-job run-time objective: a job whose
	// placement run (queue wait excluded) takes longer records a
	// flight-recorder bundle with reason "slo_breach".
	SLO time.Duration
	// FlightRecorderCap bounds the in-memory anomaly ring. Defaults to
	// 32; negative disables the recorder entirely.
	FlightRecorderCap int
	// RejectBurst is the number of backpressure rejections within one
	// second that counts as an anomaly (reason "reject_burst"). Defaults
	// to 8; negative disables the trigger.
	RejectBurst int
	// ProfileOnBreach, when positive, captures a CPU profile of that
	// duration into the flight bundle on an SLO breach. The capture runs
	// synchronously on the breaching job's worker — the time is already
	// lost to the breach — and at most one capture runs at a time.
	ProfileOnBreach time.Duration
}

// State is a job's lifecycle position.
type State string

// Job lifecycle. Deadline-expired jobs end in StateDone — a partial
// placement is a valid result (Status.StopReason distinguishes it).
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateCancelled State = "cancelled"
	StateFailed    State = "failed"
)

// Terminal reports whether no further transition can happen.
func (s State) Terminal() bool {
	return s == StateDone || s == StateCancelled || s == StateFailed
}

// JobRequest describes one placement job. The netlist is owned by the job
// after Submit; do not touch it until the job reaches a terminal state.
type JobRequest struct {
	Netlist *netlist.Netlist
	// Config is the per-job placement configuration. The server chains
	// its own progress recorder onto OnIteration and forces NoTrace (a
	// serving process must not retain O(iterations) state per job).
	Config place.Config
	// Deadline bounds the job's run time; the job returns its best
	// placement when it expires. Zero uses Config.DefaultDeadline.
	Deadline time.Duration
	// Trace is the upstream trace context (parsed W3C traceparent). The
	// zero value starts a fresh trace; a valid one stitches this job's
	// span tree under the caller's span.
	Trace obsv.TraceParent
	// Accept is how long the transport spent accepting the request
	// (decode + netlist parse) before Submit; it becomes the root span's
	// leading "accept" child so the trace covers the full request.
	Accept time.Duration
}

// Status is a point-in-time snapshot of a job, also the /jobs/{id} JSON
// schema.
type Status struct {
	ID          string    `json:"id"`
	State       State     `json:"state"`
	Design      string    `json:"design"`
	Cells       int       `json:"cells"`
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at"`
	FinishedAt  time.Time `json:"finished_at"`
	// Progress/result fields; updated live while running, final once the
	// state is terminal.
	Iterations int              `json:"iterations"`
	HPWL       float64          `json:"hpwl"`
	Overflow   float64          `json:"overflow"`
	StopReason place.StopReason `json:"stop_reason,omitempty"`
	// Checkpoint is the snapshot path written when the job was drained
	// by Shutdown.
	Checkpoint string `json:"checkpoint,omitempty"`
	Error      string `json:"error,omitempty"`
	// TraceID identifies the job's span tree (GET /jobs/{id}/trace);
	// propagated from the submitter's traceparent when one was sent.
	TraceID string `json:"trace_id,omitempty"`
}

// Job is one submitted placement. All accessors are safe for concurrent
// use; the underlying netlist may only be read once the job is terminal.
type Job struct {
	id     string
	s      *Server
	nl     *netlist.Netlist
	cfg    place.Config
	cancel context.CancelFunc
	ctx    context.Context

	// trace is the job's span tree; queueSpan is the open "queue" child
	// ended when a worker picks the job up. prog is the bounded event
	// ring behind GET /jobs/{id}/events.
	trace     *obsv.JobTrace
	queueSpan *obsv.SpanRec
	prog      *progress

	mu     sync.Mutex
	status Status
	drain  bool // set by Shutdown: cancellation should checkpoint
}

// ID returns the job's server-assigned identifier.
func (j *Job) ID() string { return j.id }

// Status returns a snapshot of the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Netlist returns the job's netlist. Only read it once the job is
// terminal: the worker mutates positions while running.
func (j *Job) Netlist() *netlist.Netlist { return j.nl }

// TraceTree snapshots the job's span tree (the /jobs/{id}/trace schema).
func (j *Job) TraceTree() obsv.SpanTree { return j.trace.Snapshot() }

// TraceParent returns the trace context to propagate to work downstream
// of this job — the traceparent header value for a follow-up call.
func (j *Job) TraceParent() obsv.TraceParent { return j.trace.Child() }

// Events returns buffered progress events with Seq >= from (oldest
// first), a channel that closes when the next event arrives, and whether
// the stream has ended. An empty batch with done=false means "wait on
// wake, then call again".
func (j *Job) Events(from int) (events []Event, wake <-chan struct{}, done bool) {
	return j.prog.since(from)
}

// Cancel stops the job: a queued job is marked cancelled immediately, a
// running one stops at the next transformation with its partial placement
// intact. Cancelling a terminal job is a no-op.
func (j *Job) Cancel() {
	j.mu.Lock()
	wasQueued := j.status.State == StateQueued
	if wasQueued {
		j.status.State = StateCancelled
		j.status.StopReason = place.StopCancelled
		j.status.FinishedAt = j.s.now()
	}
	j.mu.Unlock()
	if wasQueued {
		j.s.met.cancelled.Inc()
		j.queueSpan.End()
		j.trace.Root().End()
		j.prog.closeWith(Event{State: StateCancelled})
	}
	j.cancel()
}

// Done reports whether the job reached a terminal state.
func (j *Job) Done() bool { return j.Status().State.Terminal() }

// Server is the placement service: a bounded queue feeding a par.Pool of
// placement workers.
type Server struct {
	cfg     Config
	pool    *par.Pool
	reg     *obsv.Registry
	met     serveMetrics
	rec     *obsv.FlightRecorder // nil when disabled
	started time.Time

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for listing
	nextID   int
	draining bool
	// Rejection-burst tracking: rejCount rejections since rejWindow; a
	// window is one second, and the flight trigger fires once per window.
	rejWindow time.Time
	rejCount  int
}

type serveMetrics struct {
	submitted  *obsv.Counter
	rejected   *obsv.Counter
	done       *obsv.Counter
	cancelled  *obsv.Counter
	failed     *obsv.Counter
	deadlined  *obsv.Counter
	flight     *obsv.Counter
	queueDepth *obsv.Gauge
	jobSeconds *obsv.Histogram
	queueWait  *obsv.Histogram
	runSeconds *obsv.Histogram
}

// New starts a server with cfg's worker pool. Call Shutdown to stop it.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.FlightRecorderCap == 0 {
		cfg.FlightRecorderCap = 32
	}
	if cfg.RejectBurst == 0 {
		cfg.RejectBurst = 8
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obsv.NewRegistry()
	}
	s := &Server{
		cfg:  cfg,
		pool: par.NewPool(cfg.Workers, cfg.QueueDepth),
		reg:  reg,
		jobs: make(map[string]*Job),
		met: serveMetrics{
			submitted:  reg.Counter("serve_jobs_submitted_total", "placement jobs accepted"),
			rejected:   reg.Counter("serve_jobs_rejected_total", "placement jobs rejected by backpressure"),
			done:       reg.Counter("serve_jobs_done_total", "placement jobs completed (including deadline partials)"),
			cancelled:  reg.Counter("serve_jobs_cancelled_total", "placement jobs cancelled"),
			failed:     reg.Counter("serve_jobs_failed_total", "placement jobs failed (panic or structural error)"),
			deadlined:  reg.Counter("serve_jobs_deadline_total", "placement jobs that returned a deadline partial"),
			flight:     reg.Counter("serve_flight_records_total", "anomaly bundles captured by the flight recorder"),
			queueDepth: reg.Gauge("serve_queue_depth", "jobs waiting to start"),
			jobSeconds: reg.Histogram("serve_job_seconds", "placement job wall time in seconds", obsv.SecondsBuckets),
			queueWait:  reg.Histogram("serve_queue_wait_seconds", "time from submission to a worker picking the job up", obsv.SecondsBuckets),
			runSeconds: reg.Histogram("serve_run_seconds", "placement run time excluding queue wait", obsv.SecondsBuckets),
		},
	}
	if cfg.FlightRecorderCap > 0 {
		s.rec = obsv.NewFlightRecorder(cfg.FlightRecorderCap)
	}
	s.started = s.now()
	// The pool's own recovery is a backstop; runJob recovers per job
	// before the panic can reach the worker.
	s.pool.OnPanic = func(any) { s.met.failed.Inc() }
	return s
}

// now reads the configured clock.
func (s *Server) now() time.Time {
	if s.cfg.Now != nil {
		return s.cfg.Now()
	}
	//lint:ignore noclock job timestamps need the wall clock; kserved injects time.Now explicitly and tests inject a fake — this is the nil-Config fallback
	return time.Now()
}

// Submit enqueues a placement job, returning ErrQueueFull under
// backpressure and ErrDraining during shutdown.
func (s *Server) Submit(req JobRequest) (*Job, error) {
	if req.Netlist == nil {
		return nil, errors.New("serve: nil netlist")
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.noteRejection()
		return nil, ErrDraining
	}
	s.nextID++
	id := fmt.Sprintf("job-%d", s.nextID)
	s.mu.Unlock()

	deadline := req.Deadline
	if deadline <= 0 {
		deadline = s.cfg.DefaultDeadline
	}
	now := s.now()
	tr := obsv.NewJobTraceAt("serve/job", req.Trace, s.cfg.Now)
	root := tr.Root()
	root.SetAttr("job_id", id)
	root.SetAttr("design", req.Netlist.Name)
	if req.Accept > 0 {
		// The transport's accept work (decode + parse) happened just
		// before Submit; fold it into the tree as the root's first child.
		root.RecordChild("accept", now.Add(-req.Accept), now)
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		id:        id,
		s:         s,
		nl:        req.Netlist,
		cfg:       req.Config,
		ctx:       ctx,
		cancel:    cancel,
		trace:     tr,
		queueSpan: root.Start("queue"),
		prog:      newProgress(),
		status: Status{
			ID:          id,
			State:       StateQueued,
			Design:      req.Netlist.Name,
			Cells:       len(req.Netlist.Cells),
			SubmittedAt: now,
			TraceID:     tr.ID(),
		},
	}
	j.cfg.NoTrace = true
	// Chain the server's progress recorder onto the caller's observer so
	// /jobs/{id} shows live iteration counts and /jobs/{id}/events
	// streams per-iteration convergence.
	user := j.cfg.OnIteration
	j.cfg.OnIteration = func(st place.IterStats) {
		j.mu.Lock()
		j.status.Iterations = st.Iter + 1
		j.status.HPWL = st.HPWL
		j.status.Overflow = st.Overflow
		j.mu.Unlock()
		j.prog.append(eventFrom(st))
		if user != nil {
			user(st)
		}
	}
	run := func() { s.runJob(j, deadline) }
	if err := s.pool.Submit(run); err != nil {
		cancel()
		s.noteRejection()
		if errors.Is(err, par.ErrPoolClosed) {
			return nil, ErrDraining
		}
		return nil, ErrQueueFull
	}
	s.mu.Lock()
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()
	s.met.submitted.Inc()
	s.met.queueDepth.Set(float64(s.pool.Queued()))
	return j, nil
}

// runJob executes one job on a pool worker. A panic anywhere in the
// placement marks this job failed and leaves every other job untouched.
func (s *Server) runJob(j *Job, deadline time.Duration) {
	defer s.met.queueDepth.Set(float64(s.pool.Queued()))
	j.mu.Lock()
	if j.status.State != StateQueued { // cancelled while queued
		j.mu.Unlock()
		return
	}
	j.status.State = StateRunning
	started := s.now()
	j.status.StartedAt = started
	submitted := j.status.SubmittedAt
	j.mu.Unlock()
	j.queueSpan.End()
	s.met.queueWait.Observe(started.Sub(submitted).Seconds())
	runSpan := j.trace.Root().Start("run")

	defer func() {
		if r := recover(); r != nil {
			j.mu.Lock()
			j.status.State = StateFailed
			j.status.Error = fmt.Sprintf("panic: %v", r)
			j.status.FinishedAt = s.now()
			j.mu.Unlock()
			s.met.failed.Inc()
			runSpan.SetAttr("panic", fmt.Sprint(r))
			runSpan.End()
			j.trace.Root().End()
			s.flightDump(j, "panic", map[string]any{"panic": fmt.Sprint(r)}, nil)
			j.prog.closeWith(Event{State: StateFailed})
		}
	}()

	ctx := j.ctx
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}

	sw := obsv.StartTimer()
	placer := place.New(j.nl, j.cfg)
	res, err := placer.Run(ctx)
	elapsed := sw.Elapsed()
	s.met.jobSeconds.Observe(elapsed.Seconds())
	s.met.runSeconds.Observe(elapsed.Seconds())

	// Fold the run's phase totals into the trace as aggregate child spans
	// laid end to end from the run start. The phases are sequential and
	// sum to at most the step time, so the waterfall ends within the run.
	runEnd := s.now()
	runStart := runEnd.Add(-elapsed)
	t := runStart
	res.Phases.Each(func(k string, d time.Duration) {
		if k != "step" && d > 0 {
			runSpan.RecordChild("phase/"+k, t, t.Add(d))
			t = t.Add(d)
		}
	})
	runSpan.SetAttr("iterations", fmt.Sprint(res.Iterations))
	runSpan.SetAttr("stop_reason", string(res.StopReason))
	runSpan.SetAttr("hpwl", fmt.Sprintf("%g", res.HPWL))
	runSpan.End()
	j.trace.Root().End()

	j.mu.Lock()
	j.status.FinishedAt = runEnd
	j.status.Iterations = res.Iterations
	j.status.HPWL = res.HPWL
	j.status.Overflow = res.Overflow
	j.status.StopReason = res.StopReason
	needCkpt := false
	final := Event{HPWL: res.HPWL, Overflow: res.Overflow, Iter: res.Iterations - 1}
	switch {
	case err != nil:
		j.status.State = StateFailed
		j.status.Error = err.Error()
		s.met.failed.Inc()
	case res.StopReason == place.StopCancelled:
		j.status.State = StateCancelled
		s.met.cancelled.Inc()
		needCkpt = j.drain && s.cfg.CheckpointDir != ""
	default:
		// Deadline partials are successes: the best placement so far is
		// a valid result, distinguished only by StopReason.
		j.status.State = StateDone
		s.met.done.Inc()
		if res.StopReason == place.StopDeadline {
			s.met.deadlined.Inc()
		}
	}
	final.State = j.status.State
	j.mu.Unlock()

	// Anomaly capture. A deadline miss means the job shipped a partial;
	// an SLO breach means even a completed run was too slow. Both freeze
	// the span tree and the recent convergence samples for postmortem.
	if res.StopReason == place.StopDeadline {
		s.flightDump(j, "deadline_miss", map[string]any{
			"deadline_ms": deadline.Milliseconds(),
			"iterations":  res.Iterations,
			"stop_reason": res.StopReason,
		}, nil)
	} else if s.cfg.SLO > 0 && elapsed > s.cfg.SLO {
		var profile []byte
		if s.cfg.ProfileOnBreach > 0 {
			profile = s.rec.CaptureCPUProfile(s.cfg.ProfileOnBreach)
		}
		s.flightDump(j, "slo_breach", map[string]any{
			"slo_ms": s.cfg.SLO.Milliseconds(),
			"run_ms": elapsed.Milliseconds(),
		}, profile)
	}
	j.prog.closeWith(final)

	// The checkpoint write happens outside the status lock: the placer is
	// exclusively ours once Run returned, and a Status reader should never
	// wait on disk I/O. The checkpoint path lands in the status as soon as
	// the file is durable.
	if needCkpt {
		path, werr := s.writeCheckpoint(j.id, placer)
		j.mu.Lock()
		if werr != nil {
			j.status.Error = werr.Error()
		} else {
			j.status.Checkpoint = path
		}
		j.mu.Unlock()
	}
}

// flightDump freezes one job's observability state — span tree plus the
// most recent convergence samples — into the flight recorder. No-op when
// the recorder is disabled.
func (s *Server) flightDump(j *Job, reason string, detail map[string]any, profile []byte) {
	if s.rec == nil {
		return
	}
	tree := j.trace.Snapshot()
	s.rec.Record(obsv.FlightEntry{
		Time:       s.now(),
		Reason:     reason,
		JobID:      j.id,
		Detail:     detail,
		Trace:      &tree,
		Samples:    j.prog.recent(64),
		CPUProfile: profile,
	})
	s.met.flight.Inc()
}

// noteRejection counts one backpressure rejection and, when rejections
// burst (RejectBurst within a one-second window), records a flight
// bundle — a rejection storm is an anomaly about the service, not about
// any single job. Fires once per window.
func (s *Server) noteRejection() {
	s.met.rejected.Inc()
	if s.rec == nil || s.cfg.RejectBurst <= 0 {
		return
	}
	now := s.now()
	s.mu.Lock()
	if now.Sub(s.rejWindow) > time.Second {
		s.rejWindow = now
		s.rejCount = 0
	}
	s.rejCount++
	fire := s.rejCount == s.cfg.RejectBurst
	count := s.rejCount
	queued := s.pool.Queued()
	s.mu.Unlock()
	if fire {
		s.rec.Record(obsv.FlightEntry{
			Time:   now,
			Reason: "reject_burst",
			Detail: map[string]any{
				"rejections_in_window": count,
				"window_ms":            1000,
				"queued":               queued,
				"queue_cap":            s.cfg.QueueDepth,
			},
		})
		s.met.flight.Inc()
	}
}

// FlightRecorder exposes the anomaly ring (nil when disabled).
func (s *Server) FlightRecorder() *obsv.FlightRecorder { return s.rec }

// writeCheckpoint serializes a drained job's placer state.
func (s *Server) writeCheckpoint(id string, p *place.Placer) (string, error) {
	path := filepath.Join(s.cfg.CheckpointDir, id+".ckpt")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("serve: checkpoint %s: %w", id, err)
	}
	if err := p.Checkpoint().Encode(f); err != nil {
		f.Close()
		return "", fmt.Errorf("serve: checkpoint %s: %w", id, err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("serve: checkpoint %s: %w", id, err)
	}
	return path, nil
}

// Job looks a job up by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every job's status in submission order.
func (s *Server) Jobs() []Status {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// Health summarizes the server for /healthz.
type Health struct {
	Status   string `json:"status"` // "ok" or "draining"
	Workers  int    `json:"workers"`
	Queued   int    `json:"queued"`
	Running  int    `json:"running"`
	Jobs     int    `json:"jobs"`
	Draining bool   `json:"draining"`
	// ActiveWorkers counts pool workers mid-task right now (Running
	// counts jobs in StateRunning; the two can briefly differ around
	// state transitions).
	ActiveWorkers int `json:"active_workers"`
	// QueueCap is the configured queue bound; Queued/QueueCap is the
	// backpressure headroom.
	QueueCap int `json:"queue_cap"`
	// UptimeSec is seconds since the server started, by its own clock.
	UptimeSec float64 `json:"uptime_sec"`
	// FlightRecords is the number of anomaly bundles currently held.
	FlightRecords int `json:"flight_records"`
}

// Health returns the current service health.
func (s *Server) Health() Health {
	// Snapshot the job set under s.mu, then count states under each j.mu
	// after releasing it: taking a job lock inside the server lock would
	// stall every Submit/Job call behind the slowest status holder.
	s.mu.Lock()
	draining := s.draining
	total := len(s.jobs)
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	running := 0
	for _, j := range jobs {
		j.mu.Lock()
		if j.status.State == StateRunning {
			running++
		}
		j.mu.Unlock()
	}
	h := Health{
		Status:        "ok",
		Workers:       s.cfg.Workers,
		Queued:        s.pool.Queued(),
		Running:       running,
		Jobs:          total,
		Draining:      draining,
		ActiveWorkers: s.pool.Running(),
		QueueCap:      s.cfg.QueueDepth,
		UptimeSec:     s.now().Sub(s.started).Seconds(),
		FlightRecords: s.rec.Len(),
	}
	if draining {
		h.Status = "draining"
	}
	return h
}

// Metrics returns the registry the server meters into.
func (s *Server) Metrics() *obsv.Registry { return s.reg }

// Shutdown drains the server: new submissions are rejected, every
// non-terminal job is cancelled (running jobs stop at their next
// transformation and, when CheckpointDir is set, serialize a resumable
// snapshot), and the worker pool is closed. It waits until the drain
// completes or ctx is done, whichever comes first.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return s.pool.CloseContext(ctx)
	}
	s.draining = true
	// Drain in submission order so shutdown behavior is reproducible.
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.mu.Lock()
		terminal := j.status.State.Terminal()
		if !terminal {
			j.drain = true
		}
		j.mu.Unlock()
		if !terminal {
			j.Cancel()
		}
	}
	return s.pool.CloseContext(ctx)
}
