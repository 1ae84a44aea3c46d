// Package stale is the fixture for stale-suppression detection: one
// directive that earns its keep, one that suppresses nothing, and one
// deliberately retained under a reasoned staleignore directive.
package stale

import "time"

// live: the directive below suppresses a real noclock finding.
func live() time.Time {
	//lint:ignore noclock the caller needs a wall-clock timestamp
	return time.Now()
}

// dead: an integer comparison never reads the clock, so the directive is
// stale and must be reported.
func dead(a, b int) bool {
	//lint:ignore noclock nothing here reads the clock
	return a == b
}

// kept: the noclock directive is stale too, but the staleignore
// directive above it vouches for keeping it — and thereby earns its own
// hit, so neither is reported.
func kept(a, b int) bool {
	//lint:ignore staleignore retained to document the historical exception
	//lint:ignore noclock nothing here reads the clock either
	return a == b
}
