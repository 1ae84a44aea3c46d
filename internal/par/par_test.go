package par

import (
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersBelowThreshold(t *testing.T) {
	old := Threshold
	Threshold = 100
	defer func() { Threshold = old }()
	if w := Workers(99); w != 1 {
		t.Errorf("Workers(99) = %d, want 1", w)
	}
	if w := Workers(100); w < 1 {
		t.Errorf("Workers(100) = %d, want >= 1", w)
	}
}

func TestWorkersNeverExceedItems(t *testing.T) {
	old := Threshold
	Threshold = 1
	defer func() { Threshold = old }()
	if w := Workers(2); w > 2 {
		t.Errorf("Workers(2) = %d, want <= 2", w)
	}
}

func TestRunCoversRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16} {
		const n = 103
		var hits [n]int32
		Run(workers, n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

func TestRunWorkerChunksAreOrdered(t *testing.T) {
	const n = 40
	bounds := make([][2]int, 8)
	Run(4, n, func(w, lo, hi int) { bounds[w] = [2]int{lo, hi} })
	prev := 0
	for w := 0; w < 4 && bounds[w][1] > 0; w++ {
		if bounds[w][0] != prev {
			t.Fatalf("worker %d starts at %d, want %d", w, bounds[w][0], prev)
		}
		prev = bounds[w][1]
	}
	if prev != n {
		t.Fatalf("chunks cover up to %d, want %d", prev, n)
	}
}

func TestRunEmptyRange(t *testing.T) {
	called := 0
	Run(4, 0, func(_, lo, hi int) {
		called++
		if lo != 0 || hi != 0 {
			t.Errorf("empty range got [%d,%d)", lo, hi)
		}
	})
	if called != 1 {
		t.Errorf("fn called %d times, want 1", called)
	}
}

// countTask counts its runs; each test task gets its own counter, so the
// two sides of a fork never write the same memory.
type countTask struct{ n int }

func (t *countTask) Run() { t.n++ }

func TestForkRunsBothOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		var a, b countTask
		for i := 0; i < 100; i++ {
			Fork(&a, &b)
		}
		runtime.GOMAXPROCS(prev)
		if a.n != 100 || b.n != 100 {
			t.Fatalf("GOMAXPROCS %d: 100 forks ran a %d and b %d times", procs, a.n, b.n)
		}
	}
}

// nestTask forks again from inside a lane task.
type nestTask struct{ inner [2]countTask }

func (t *nestTask) Run() { Fork(&t.inner[0], &t.inner[1]) }

// TestForkNestedRunsInline: a task already on a lane that forks again
// finds the helper lane taken and runs its pair inline, on either side of
// the outer fork, instead of waiting on the lane it occupies.
func TestForkNestedRunsInline(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var a, b nestTask
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			Fork(&a, &b)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("nested Fork deadlocked")
	}
	for _, n := range []*nestTask{&a, &b} {
		if n.inner[0].n != 50 || n.inner[1].n != 50 {
			t.Fatalf("nested tasks ran %d and %d times, want 50", n.inner[0].n, n.inner[1].n)
		}
	}
}

// TestForkWarmAllocatesNothing measures a warmed fork-join at GOMAXPROCS 2,
// where the second task really runs on the helper lane.
// testing.AllocsPerRun cannot measure it: it pins GOMAXPROCS to 1, where
// Fork runs inline. MemStats.Mallocs counts the whole process, so the
// runtime's own allocations while goroutines block (under CPU load, say)
// land in a window too; the test takes the least count over several
// windows, which a real per-fork allocation still raises in every one.
func TestForkWarmAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var a, b countTask
	Fork(&a, &b) // start the helper lane
	const forks, windows = 1000, 5
	least := uint64(math.MaxUint64)
	for w := 0; w < windows; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < forks; i++ {
			Fork(&a, &b)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	if least != 0 {
		t.Errorf("%d warmed forks allocated at least %d objects in each of %d windows, want 0", forks, least, windows)
	}
}

// TestRunOnLaneCoversRangeExactlyOnce: a two-worker Run hands its second
// chunk to the helper lane when it is free. When it is not (here: a Run
// made from inside a lane task), a Run of any width runs its chunks
// inline in worker order, on the calling goroutine.
func TestRunOnLaneCoversRangeExactlyOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n = 101
	var outer, inner [n]int32
	cover := func(hits *[n]int32) {
		Run(2, n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
	}
	cover(&outer)
	var order []int
	nested := func() {
		cover(&inner)
		Run(4, n, func(w, lo, hi int) {
			if w == 0 {
				time.Sleep(5 * time.Millisecond) // concurrent chunks would overtake it
			}
			order = append(order, w, lo, hi)
		})
	}
	Fork(&coverTask{nested}, &countTask{})
	for i := 0; i < n; i++ {
		if outer[i] != 1 || inner[i] != 1 {
			t.Fatalf("index %d visited %d times by a free-lane Run, %d by a nested one", i, outer[i], inner[i])
		}
	}
	// Appending from every chunk without a lock is safe only inline.
	want := []int{0, 0, 26, 1, 26, 52, 2, 52, 78, 3, 78, 101}
	if !slices.Equal(order, want) {
		t.Fatalf("nested four-worker Run ran (worker, lo, hi) %v, want %v inline in worker order", order, want)
	}
}

type coverTask struct{ fn func() }

func (t *coverTask) Run() { t.fn() }

// TestForkConcurrentCallers: independent goroutines forking at once share
// the one helper lane; whoever finds it taken runs inline, and every task
// still runs exactly once.
func TestForkConcurrentCallers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const callers, forks = 8, 200
	tasks := make([][2]countTask, callers)
	done := make(chan struct{})
	for c := range tasks {
		go func(pair *[2]countTask) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < forks; i++ {
				Fork(&pair[0], &pair[1])
			}
		}(&tasks[c])
	}
	for range tasks {
		<-done
	}
	for c, pair := range tasks {
		if pair[0].n != forks || pair[1].n != forks {
			t.Fatalf("caller %d: tasks ran %d and %d times, want %d", c, pair[0].n, pair[1].n, forks)
		}
	}
}
