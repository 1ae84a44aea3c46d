package qp

import (
	"repro/internal/netlist"
	"repro/internal/sparse"
)

// Assembler caches the symbolic (pattern) half of Build across repeated
// assemblies of the same netlist. The iterative algorithm rebuilds
// C·p + d + e = 0 on every placement transformation, but the sparsity
// pattern is fixed by the netlist topology; only the spring weights change
// (per iteration under linearization, on explicit re-weighting otherwise).
// After the first full build, each Assemble is a numeric refill into the
// cached CSR — no sorting, no merging, no allocation — and when the values
// cannot have changed at all (no linearization, identical net weights) the
// cached system is returned untouched.
type Assembler struct {
	nl   *netlist.Netlist
	opts Options

	b   *sparse.Builder
	sym *sparse.Symbolic
	sys *System

	// lastWeights backs the full-skip test: without linearization, C and
	// d depend only on the net weights and the (never moving) fixed pins,
	// so unchanged weights mean an unchanged system. A linearized system
	// depends on positions and always refills.
	lastWeights []float64

	// Topology fingerprint guarding the cache; a changed cell or net count
	// forces a fresh symbolic build.
	cells, nets int
}

// NewAssembler prepares a cached assembler for nl. The netlist may move
// freely and change net weights between Assemble calls; structural edits
// (adding/removing cells or nets, toggling Fixed flags) require a new
// Assembler — cell/net count changes are detected and rebuilt automatically,
// same-count structural swaps are not.
func NewAssembler(nl *netlist.Netlist, opts Options) *Assembler {
	return &Assembler{nl: nl, opts: normalize(opts)}
}

// Assemble returns the system for the netlist's current state. The returned
// *System is owned by the assembler and overwritten by the next Assemble.
func (a *Assembler) Assemble() *System {
	nl := a.nl
	if a.sys != nil && (len(nl.Cells) != a.cells || len(nl.Nets) != a.nets) {
		a.sys, a.sym, a.b, a.lastWeights = nil, nil, nil, nil
	}
	if a.sys == nil {
		a.rebuild()
		return a.sys
	}
	if !a.opts.Linearize && a.weightsUnchanged() {
		return a.sys
	}
	// Numeric refill: replay the assembly into the reused builder and
	// scatter the values through the cached pattern.
	a.b.Reset()
	a.sys.assembleInto(a.b)
	if !a.sym.Refill(a.sys.C, a.b) {
		// The insertion sequence diverged from the pattern (structural
		// change at constant counts); fall back to a fresh build.
		a.rebuild()
		return a.sys
	}
	a.captureWeights()
	return a.sys
}

func (a *Assembler) rebuild() {
	s := newSkeleton(a.nl, a.opts)
	a.b = sparse.NewBuilderSized(s.rowCounts())
	s.assembleInto(a.b)
	s.C, a.sym = a.b.BuildSymbolic()
	a.sys = s
	a.cells = len(a.nl.Cells)
	a.nets = len(a.nl.Nets)
	a.captureWeights()
}

func (a *Assembler) captureWeights() {
	if a.lastWeights == nil || len(a.lastWeights) != len(a.nl.Nets) {
		a.lastWeights = make([]float64, len(a.nl.Nets))
	}
	for i := range a.nl.Nets {
		a.lastWeights[i] = a.nl.Nets[i].Weight
	}
}

func (a *Assembler) weightsUnchanged() bool {
	if len(a.lastWeights) != len(a.nl.Nets) {
		return false
	}
	for i := range a.nl.Nets {
		//lint:ignore floatcmp cache invalidation must be bit-exact: any weight change, however small, has to trigger a refill
		if a.nl.Nets[i].Weight != a.lastWeights[i] {
			return false
		}
	}
	return true
}
