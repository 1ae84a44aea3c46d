// Package b is the dependent side of the callgraph fixture: its call
// sites resolve into package a through export data, so may-block facts
// must cross the package boundary.
package b

import (
	"net/http"

	"repro/internal/lint/callgraph/testdata/multi/a"
)

// Handler reaches a.Sleepy through two hops.
func Handler(w http.ResponseWriter, r *http.Request) {
	a.Chain()
}

// Cold reaches a.Sleepy through one cross-package call.
func Cold() {
	a.Sleepy()
}

// Fanout passes a closure; the closure's ops belong to Fanout.
func Fanout(run func(func())) {
	run(func() {
		a.Sleepy()
	})
}

// UsesMethod calls a method across the boundary.
func UsesMethod(c *a.Counter) {
	c.Bump()
}

// Lanes forks a sleeping task: the sleep reaches Lanes through the task's
// Run method once a.Fork is bounded.
func Lanes() {
	a.Fork(&a.SleepTask{}, &a.CalmTask{})
}

// CalmLanes forks two tasks that never block.
func CalmLanes() {
	a.Fork(&a.CalmTask{}, &a.CalmTask{})
}

// LaneFuncs hands function values to a bounded fork-join.
func LaneFuncs() {
	a.Both(a.Calm2, a.Sleepy)
}
