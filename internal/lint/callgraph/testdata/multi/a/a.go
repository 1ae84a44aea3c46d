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

// Chain reaches Sleepy through one local hop.
func Chain() {
	Sleepy()
}

// Counter is a type for method-key coverage.
type Counter struct{ n int }

// Bump is a method with a pointer receiver.
func (c *Counter) Bump() { c.n++ }
