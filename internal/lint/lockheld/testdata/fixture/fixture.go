// Package fixture exercises lockheld. The shapes mirror internal/serve's
// drain path: a job mutex held (by defer) across a checkpoint write, a
// registry lock nested over a job lock, and the sanctioned non-blocking
// idioms — try-send under lock (par.Pool.Submit's shape), close under
// lock, unlock-before-wait (Shutdown's shape) — and a par.Fork under a
// lock, flagged only when a task it runs on a lane may block.
package fixture

import (
	"os"
	"sync"
	"time"

	"repro/internal/par"
)

type job struct {
	mu    sync.Mutex
	state string
	done  chan struct{}
}

// writeState is the checkpoint helper: blocking I/O two hops away from
// the lock site, visible only through the interprocedural summary.
func writeState(path, state string) error {
	return os.WriteFile(path, []byte(state), 0o644)
}

// drainBad mirrors the bug shape: the deferred unlock holds j.mu to the
// end of the function, so the checkpoint write happens inside the
// critical section.
func (j *job) drainBad(path string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = "draining"
	return writeState(path, j.state) // want `call to .*writeState \[may I/O\] while j\.mu is held`
}

// drainGood snapshots under the lock and writes outside it.
func (j *job) drainGood(path string) error {
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	return writeState(path, state)
}

type registry struct {
	mu   sync.Mutex
	jobs map[string]*job
}

// nested acquires a job lock while holding the registry lock — the
// deadlock-ordering hazard.
func (r *registry) nested(id string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	j := r.jobs[id]
	j.mu.Lock() // want `\(\*sync\.Mutex\)\.Lock \[lock\] while r\.mu is held`
	state := j.state
	j.mu.Unlock()
	return state
}

// trySend is par.Pool.Submit's shape: a select with a default cannot
// block, so it is legal under the lock.
func (j *job) trySend(ch chan string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	select {
	case ch <- j.state:
		return true
	default:
		return false
	}
}

// waitUnderLock parks on a channel inside the critical section.
func (j *job) waitUnderLock() {
	j.mu.Lock()
	defer j.mu.Unlock()
	<-j.done // want `channel receive while j\.mu is held`
}

// send is an unbuffered-send-under-lock: blocks until a receiver shows up.
func (j *job) send(ch chan string) {
	j.mu.Lock()
	ch <- j.state // want `channel send while j\.mu is held`
	j.mu.Unlock()
}

// closeDone is legal: close never blocks.
func (j *job) closeDone() {
	j.mu.Lock()
	defer j.mu.Unlock()
	close(j.done)
}

// sleepy blocks directly on the stdlib table.
func (j *job) sleepy() {
	j.mu.Lock()
	defer j.mu.Unlock()
	time.Sleep(time.Millisecond) // want `time\.Sleep \[sleep\] while j\.mu is held`
}

// shutdown is serve.Shutdown's shape: release first, then wait — legal.
func (j *job) shutdown() {
	j.mu.Lock()
	j.state = "closed"
	j.mu.Unlock()
	<-j.done
}

// sleepTask is a pre-bound lane task whose Run sleeps.
type sleepTask struct{}

func (*sleepTask) Run() { time.Sleep(time.Millisecond) }

// calmTask is a lane task that never blocks.
type calmTask struct{ n int }

func (t *calmTask) Run() { t.n++ }

// forkUnderLock forks a sleeping task while holding the lock: the
// fork-join itself is bounded, the task it runs on a lane is not.
func (j *job) forkUnderLock(s *sleepTask, c *calmTask) {
	j.mu.Lock()
	defer j.mu.Unlock()
	par.Fork(c, s) // want `fork-join running .*sleepTask\)\.Run \[may sleep\] while j\.mu is held`
}

// forkCalmUnderLock forks tasks that never block: allowed.
func (j *job) forkCalmUnderLock(a, b *calmTask) {
	j.mu.Lock()
	defer j.mu.Unlock()
	par.Fork(a, b)
}
