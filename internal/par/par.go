// Package par centralizes the parallel-execution policy shared by the
// hot-path packages: one size threshold deciding when a loop is worth
// fanning out to goroutines, a chunked fork-join helper whose chunk
// ordering is deterministic, and the two-task Pair that runs the x/y axis
// solves side by side. fft (the 2-D transform passes) and density (the
// demand gather) both consult the same threshold, so a single tunable
// governs when parallelism engages across the engine.
package par

import (
	"runtime"
	"sync"
)

// Threshold is the minimum number of independent work items (grid
// elements, cells) before a hot path fans out to goroutines; below it
// the scheduling overhead outweighs the win. Tests lower it to force the
// parallel paths onto small fixtures; benchmarks may raise it to pin a
// serial baseline.
var Threshold = 8192

// Workers returns the goroutine count for n independent work items: 1 below
// Threshold, otherwise runtime.GOMAXPROCS(0) capped at n.
func Workers(n int) int {
	if n < Threshold {
		return 1
	}
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Pair runs f and g concurrently and waits for both: the two-task
// fork-join used when exactly two independent jobs of similar cost exist
// (the x/y axis solves). Keeping it here, next to Run, means kvet's
// parpolicy check can forbid raw go statements everywhere else.
func Pair(f, g func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		g()
	}()
	f()
	<-done
}

// Run partitions [0, n) into at most workers contiguous chunks — worker k
// always receives chunk k, so callers that gather per-worker output can
// merge it in a deterministic order — runs fn on each concurrently, and
// waits for all of them. workers <= 1 calls fn(0, 0, n) inline.
func Run(workers, n int, fn func(worker, lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	worker := 0
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(worker, lo, hi)
		worker++
	}
	wg.Wait()
}
