package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Task is one unit of lane work, bound to its inputs and outputs before it
// is forked: a pointer to a small struct kept by its owner, whose Run
// reads the struct's inputs and writes its results back into it. Passing
// such a pointer as a Task allocates nothing, which is what keeps a
// fork-join in the placement step garbage-free; a closure handed to
// another goroutine would escape, and allocate, on every fork.
type Task interface{ Run() }

// lane is the process's second lane: one helper goroutine, started on the
// first fork that needs it and kept for the life of the process. busy is
// held from hand-off to join, so at most one fork-join uses the helper at
// a time; a fork-join that finds it taken runs without it.
var lane struct {
	once sync.Once
	busy atomic.Bool
	task chan Task
	done chan struct{}
	// chunk is Run's second chunk, bound while Run holds the lane.
	chunk chunkTask
}

// chunkTask runs worker 1's chunk of a two-worker Run.
type chunkTask struct {
	fn     func(worker, lo, hi int)
	lo, hi int
}

func (t *chunkTask) Run() { t.fn(1, t.lo, t.hi) }

// Fork runs a and b side by side and returns when both have finished: a
// on the calling goroutine, b on the helper lane. The two tasks must not
// write anything the other reads. Fork runs a and then b inline, in that
// order, when GOMAXPROCS is 1 or when the helper lane is already taken,
// which covers a Fork made from inside a task that is itself on a lane: a
// nested fork-join runs serially instead of waiting on itself. Either way
// each task runs exactly once, on the same inputs, so a caller whose tasks
// split fixed ranges gets the same result bit for bit at every GOMAXPROCS.
func Fork(a, b Task) {
	if !acquire() {
		a.Run()
		b.Run()
		return
	}
	lane.task <- b
	defer join() // a panic in a still waits for b before the lane is freed
	a.Run()
}

// acquire takes the helper lane, starting it on first use. It reports
// false at GOMAXPROCS 1 and when another fork-join holds the lane.
func acquire() bool {
	if runtime.GOMAXPROCS(0) < 2 || !lane.busy.CompareAndSwap(false, true) {
		return false
	}
	lane.once.Do(startLane)
	return true
}

// join waits for the helper lane's task and releases the lane.
func join() {
	<-lane.done
	lane.chunk.fn = nil
	lane.busy.Store(false)
}

func startLane() {
	lane.task = make(chan Task)
	lane.done = make(chan struct{})
	go func() {
		for t := range lane.task {
			t.Run()
			lane.done <- struct{}{}
		}
	}()
}
