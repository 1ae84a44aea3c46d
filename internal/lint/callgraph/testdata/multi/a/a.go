// Package a is the dependency side of the callgraph fixture: its facts
// must be visible when package b (which imports it) is summarized.
package a

import (
	"context"
	"time"
)

// Sleepy blocks without taking a context.
func Sleepy() {
	time.Sleep(time.Millisecond)
}

// CtxOK blocks on a channel receive.
func CtxOK(ctx context.Context) {
	<-ctx.Done()
}

// Calm neither blocks nor calls anything that does.
func Calm() int { return 1 }

// Calm2 is Calm's shape for a func() parameter.
func Calm2() {}

// Chain reaches Sleepy through one local hop.
func Chain() {
	Sleepy()
}

// Counter is a type for method-key coverage.
type Counter struct{ n int }

// Bump is a method with a pointer receiver.
func (c *Counter) Bump() { c.n++ }

// Task is a pre-bound unit of lane work, shaped like par.Task.
type Task interface{ Run() }

// Fork stands in for par.Fork: a fork-join whose own channel operations
// are not its caller's blocking once it is bounded.
func Fork(x, y Task) {
	done := make(chan struct{})
	go func() {
		y.Run()
		close(done)
	}()
	x.Run()
	<-done
}

// Both stands in for a bounded fork-join taking function values.
func Both(f, g func()) {
	f()
	g()
}

// SleepTask is a task whose Run sleeps.
type SleepTask struct{}

// Run sleeps through Sleepy.
func (*SleepTask) Run() { Sleepy() }

// CalmTask is a task whose Run does not block.
type CalmTask struct{ n int }

// Run only counts.
func (t *CalmTask) Run() { t.n++ }
