// Package par centralizes the parallel-execution policy shared by the
// hot-path packages: one size threshold deciding when a loop is worth
// fanning out to goroutines, a chunked fork-join helper (Run) whose chunk
// ordering is deterministic, and the two-lane fork-join (Fork) that runs
// two pre-bound tasks side by side on the caller and one persistent
// helper goroutine without allocating: the placement step's field solve
// beside its system build, its x/y axis solves, the halves of its system
// assembly, and its end-of-step bookkeeping. density (the demand gather)
// and qp (the assembly halves) consult the same threshold, so a single
// tunable governs when chunked parallelism engages across the engine.
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

// Run partitions [0, n) into at most workers contiguous chunks — worker k
// always receives chunk k, so callers that gather per-worker output can
// merge it in a deterministic order — runs fn on each concurrently, and
// waits for all of them. workers <= 1 calls fn(0, 0, n) inline. With two
// workers, chunk 1 runs on the helper lane when it is free (see Fork), so
// the fan-out starts no goroutine. When the helper lane is taken, as it is
// for a Run made from inside a lane task, or when two workers meet
// GOMAXPROCS 1, the chunks run inline in worker order, as Fork's tasks
// do. Otherwise every chunk but the first gets a goroutine of its own.
func Run(workers, n int, fn func(worker, lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	if workers == 2 && acquire() {
		lane.chunk = chunkTask{fn: fn, lo: chunk, hi: n}
		lane.task <- &lane.chunk
		defer join()
		fn(0, 0, chunk)
		return
	}
	if workers == 2 || lane.busy.Load() {
		for w, lo := 0, 0; lo < n; w, lo = w+1, lo+chunk {
			fn(w, lo, min(lo+chunk, n))
		}
		return
	}
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
