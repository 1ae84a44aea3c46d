package obsv

import "time"

// Stopwatch is the sanctioned wall-clock reader for the algorithm
// packages. TestNoClockReads forbids direct time.Now/time.Since there,
// so clock access stays concentrated in this package: runtime
// measurement routes through one type that a future fake clock (or a
// build that strips timing entirely) can intercept.
type Stopwatch struct{ t0 time.Time }

// StartTimer reads the clock once and returns a running stopwatch.
// Restart by reassigning: w = obsv.StartTimer().
func StartTimer() Stopwatch { return Stopwatch{t0: time.Now()} }

// Elapsed returns the time since StartTimer. The zero Stopwatch reports
// time since the epoch — start it before reading it.
func (w Stopwatch) Elapsed() time.Duration { return time.Since(w.t0) }
