package par

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// Pool errors returned by Submit.
var (
	// ErrPoolFull reports a Submit rejected because the task queue is at
	// capacity; callers translate it into backpressure (the HTTP layer
	// answers 429).
	ErrPoolFull = errors.New("par: pool queue full")
	// ErrPoolClosed reports a Submit after Close.
	ErrPoolClosed = errors.New("par: pool closed")
)

// Pool is a fixed-size worker pool with a bounded task queue, the
// long-lived counterpart of Run's fork-join: Run fans a known amount of
// work out and joins immediately, while a Pool serves an open-ended task
// stream (the placement job queue). Keeping it here, with Run and Fork,
// keeps the repo's parallelism policy in one package: every goroutine in
// the serving layer is accounted for by this one type.
type Pool struct {
	// OnPanic, when set before the first Submit, receives the value
	// recovered from a panicking task. A panic never kills a worker:
	// the worker recovers, reports, and moves to the next task. Nil
	// discards the value (the task simply ends).
	OnPanic func(recovered any)

	tasks chan func()
	wg    sync.WaitGroup

	// running counts tasks currently executing on workers; it is what a
	// health endpoint reports as "active workers".
	running atomic.Int64

	mu     sync.Mutex
	closed bool
}

// NewPool starts workers goroutines consuming a task queue of the given
// capacity. workers and queue are clamped to at least 1.
func NewPool(workers, queue int) *Pool {
	if workers < 1 {
		workers = 1
	}
	if queue < 1 {
		queue = 1
	}
	p := &Pool{tasks: make(chan func(), queue)}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for fn := range p.tasks {
		p.invoke(fn)
	}
}

// invoke isolates one task's panic so the worker survives it.
func (p *Pool) invoke(fn func()) {
	p.running.Add(1)
	defer func() {
		p.running.Add(-1)
		if r := recover(); r != nil && p.OnPanic != nil {
			p.OnPanic(r)
		}
	}()
	fn()
}

// Submit enqueues fn without blocking. It returns ErrPoolFull when the
// queue is at capacity and ErrPoolClosed after Close; fn runs on one of
// the pool's workers otherwise.
func (p *Pool) Submit(fn func()) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPoolClosed
	}
	select {
	case p.tasks <- fn:
		return nil
	default:
		return ErrPoolFull
	}
}

// Queued returns the number of tasks waiting in the queue (not counting
// tasks already running on workers).
func (p *Pool) Queued() int { return len(p.tasks) }

// Running returns the number of tasks currently executing on workers.
func (p *Pool) Running() int { return int(p.running.Load()) }

// Close stops accepting tasks and waits until the queue has drained and
// every worker has finished its current task. It is idempotent.
func (p *Pool) Close() {
	p.markClosed()
	p.wg.Wait()
}

// CloseContext is Close with a bounded wait: it stops accepting tasks and
// waits for the drain until ctx is done, returning ctx.Err() if the
// workers did not finish in time (they keep draining in the background).
func (p *Pool) CloseContext(ctx context.Context) error {
	p.markClosed()
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (p *Pool) markClosed() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.tasks)
	}
	p.mu.Unlock()
}
