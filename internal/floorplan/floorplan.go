// Package floorplan wraps the core placer for mixed block/cell
// floorplanning (§5): Kraftwerk places blocks and cells together "without
// treating blocks and cells differently"; this package adds the flexible-
// block reshaping of classical floorplanning (blocks may change aspect
// ratio within limits, Otten [10]) and the block/cell legalization that
// turns the global result into a non-overlapping floorplan.
package floorplan

import (
	"math"
	"time"

	"repro/internal/legalize"
	"repro/internal/netlist"
	"repro/internal/obsv"
	"repro/internal/place"
)

// Flexible blocks are reshaped every reshapeEvery placement
// transformations, to an aspect ratio (H/W) in [aspectMin, aspectMax].
const (
	aspectMin    = 0.4
	aspectMax    = 2.5
	reshapeEvery = 10
)

// Result summarizes a floorplanning run.
type Result struct {
	Place    place.Result
	Legalize legalize.Result
	Blocks   int
	Reshapes int
	HPWL     float64
	Runtime  time.Duration
}

// Run floorplans nl in place with the placement configuration cfg: global
// mixed placement with periodic flexible-block reshaping, then
// legalization.
func Run(nl *netlist.Netlist, cfg place.Config) (Result, error) {
	start := obsv.StartTimer()

	var blocks []int
	for ci := range nl.Cells {
		if nl.IsBlock(ci) {
			blocks = append(blocks, ci)
		}
	}

	reshapes := 0
	userHook := cfg.BeforeTransform
	cfg.BeforeTransform = func(iter int, p *place.Placer) {
		if userHook != nil {
			userHook(iter, p)
		}
		if iter > 0 && iter%reshapeEvery == 0 {
			for _, bi := range blocks {
				if ReshapeBlock(nl, bi, aspectMin, aspectMax) {
					reshapes++
				}
			}
		}
	}

	pres, err := place.Global(nl, cfg)
	if err != nil {
		return Result{}, err
	}
	var lres legalize.Result
	if len(nl.Region.Rows) > 0 {
		lres, err = legalize.Legalize(nl, legalize.Options{})
		if err != nil {
			return Result{}, err
		}
	} else {
		legalize.LegalizeBlocks(nl, blocks)
	}
	return Result{
		Place:    pres,
		Legalize: lres,
		Blocks:   len(blocks),
		Reshapes: reshapes,
		HPWL:     nl.HPWL(),
		Runtime:  start.Elapsed(),
	}, nil
}

// ReshapeBlock adjusts block bi's aspect ratio (area preserved) to the
// candidate in [aspectMin, aspectMax] minimizing the HPWL of its incident
// nets. Pin offsets on the block scale with its dimensions (pins keep
// their relative position on the block outline). Returns true when the
// shape changed.
func ReshapeBlock(nl *netlist.Netlist, bi int, aspectMin, aspectMax float64) bool {
	c := &nl.Cells[bi]
	area := c.Area()
	if area <= 0 || c.W <= 0 || c.H <= 0 {
		return false
	}
	origW, origH := c.W, c.H
	idx := nl.CellNets()
	setShape := func(w, h float64) {
		sx, sy := w/origW, h/origH
		for _, ni := range idx[bi] {
			for pi := range nl.Nets[ni].Pins {
				p := &nl.Nets[ni].Pins[pi]
				if p.Cell != bi {
					continue
				}
				// Offsets are stored relative to the original shape; scale
				// from the original so repeated calls stay exact.
				p.Offset.X = p.Offset.X / (c.W / origW) * sx
				p.Offset.Y = p.Offset.Y / (c.H / origH) * sy
			}
		}
		c.W, c.H = w, h
	}
	cost := func() float64 {
		var s float64
		for _, ni := range idx[bi] {
			s += nl.Nets[ni].Weight * nl.NetHPWL(ni)
		}
		return s
	}
	bestW, bestH := c.W, c.H
	bestCost := cost()
	changed := false
	for _, aspect := range candidateAspects(aspectMin, aspectMax) {
		w := math.Sqrt(area / aspect)
		h := area / w
		if w > nl.Region.W() || h > nl.Region.H() {
			continue
		}
		setShape(w, h)
		if k := cost(); k < bestCost-1e-12 {
			bestCost = k
			bestW, bestH = w, h
			changed = true
		}
	}
	setShape(bestW, bestH)
	return changed
}

func candidateAspects(lo, hi float64) []float64 {
	const steps = 7
	out := make([]float64, 0, steps)
	for i := 0; i < steps; i++ {
		t := float64(i) / (steps - 1)
		// Geometric interpolation keeps candidates spread evenly in log
		// aspect.
		out = append(out, lo*math.Pow(hi/lo, t))
	}
	return out
}
