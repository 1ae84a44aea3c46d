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
	"io"
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
	// (serve_jobs_*_total, serve_queue_depth, serve_queue_wait_seconds,
	// serve_run_seconds; a job's latency is its queue wait plus its run).
	// When nil the server creates a private registry; either way /metrics
	// serves it.
	Metrics *obsv.Registry
	// Now injects the wall clock for job timestamps; cmd/kserved passes
	// time.Now. Nil falls back to the real clock.
	Now func() time.Time
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
}

// Status is a point-in-time snapshot of a job, also the /jobs/{id} JSON
// schema. It is the job's one record: its queue wait is StartedAt −
// SubmittedAt and its run time FinishedAt − StartedAt, and the
// per-iteration detail (phase times included) is the job's event stream.
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
	// prog is the bounded event ring behind GET /jobs/{id}/events.
	prog *progress

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
	started time.Time

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for listing
	nextID   int
	draining bool
}

type serveMetrics struct {
	submitted  *obsv.Counter
	rejected   *obsv.Counter
	done       *obsv.Counter
	cancelled  *obsv.Counter
	failed     *obsv.Counter
	deadlined  *obsv.Counter
	queueDepth *obsv.Gauge
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
			rejected:   reg.Counter("serve_jobs_rejected_total", "placement jobs rejected because the queue was full or the server was draining"),
			done:       reg.Counter("serve_jobs_done_total", "placement jobs completed (including deadline partials)"),
			cancelled:  reg.Counter("serve_jobs_cancelled_total", "placement jobs cancelled"),
			failed:     reg.Counter("serve_jobs_failed_total", "placement jobs failed (panic or structural error)"),
			deadlined:  reg.Counter("serve_jobs_deadline_total", "placement jobs that returned a deadline partial"),
			queueDepth: reg.Gauge("serve_queue_depth", "jobs waiting to start"),
			queueWait:  reg.Histogram("serve_queue_wait_seconds", "time from submission to a worker picking the job up", obsv.SecondsBuckets),
			runSeconds: reg.Histogram("serve_run_seconds", "placement run time excluding queue wait", obsv.SecondsBuckets),
		},
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
	// Job timestamps need the wall clock: kserved injects time.Now
	// explicitly and tests inject a fake, so this is the nil-Config
	// fallback (the one entry of obsv's TestNoClockReads allowlist).
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
		s.met.rejected.Inc()
		return nil, ErrDraining
	}
	s.nextID++
	id := fmt.Sprintf("job-%d", s.nextID)
	s.mu.Unlock()

	deadline := req.Deadline
	if deadline <= 0 {
		deadline = s.cfg.DefaultDeadline
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		id:     id,
		s:      s,
		nl:     req.Netlist,
		cfg:    req.Config,
		ctx:    ctx,
		cancel: cancel,
		prog:   newProgress(),
		status: Status{
			ID:          id,
			State:       StateQueued,
			Design:      req.Netlist.Name,
			Cells:       len(req.Netlist.Cells),
			SubmittedAt: s.now(),
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
		j.prog.append(Event{IterStats: st})
		if user != nil {
			user(st)
		}
	}
	run := func() { s.runJob(j, deadline) }
	if err := s.pool.Submit(run); err != nil {
		cancel()
		s.met.rejected.Inc()
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
	s.met.queueWait.Observe(started.Sub(submitted).Seconds())

	defer func() {
		if r := recover(); r != nil {
			j.mu.Lock()
			j.status.State = StateFailed
			j.status.Error = fmt.Sprintf("panic: %v", r)
			j.status.FinishedAt = s.now()
			j.mu.Unlock()
			s.met.failed.Inc()
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
	s.met.runSeconds.Observe(sw.Elapsed().Seconds())
	finished := s.now()

	j.mu.Lock()
	j.status.FinishedAt = finished
	j.status.Iterations = res.Iterations
	j.status.HPWL = res.HPWL
	j.status.Overflow = res.Overflow
	j.status.StopReason = res.StopReason
	needCkpt := false
	final := Event{IterStats: place.IterStats{Iter: res.Iterations - 1, HPWL: res.HPWL, Overflow: res.Overflow}}
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

// writeCheckpoint serializes a drained job's placer state.
func (s *Server) writeCheckpoint(id string, p *place.Placer) (string, error) {
	path := filepath.Join(s.cfg.CheckpointDir, id+".ckpt")
	f, err := os.Create(path)
	if err == nil {
		err = saveCheckpoint(f, p.Checkpoint())
	}
	if err != nil {
		return "", fmt.Errorf("serve: checkpoint %s: %w", id, err)
	}
	return path, nil
}

// syncWriteCloser is the part of *os.File that saveCheckpoint uses.
type syncWriteCloser interface {
	io.WriteCloser
	Sync() error
}

// saveCheckpoint encodes ck into f, syncs it to stable storage and closes
// it, returning the first error. f is closed on every path.
func saveCheckpoint(f syncWriteCloser, ck *place.Checkpoint) error {
	err := ck.Encode(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
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
