// Package eco implements incremental placement after netlist changes (§5,
// "ECO and Interaction with Logic Synthesis"): edits are applied to a
// placed design, new cells start near their connectivity's center of
// gravity, and a KeepPlacement Kraftwerk run lets the density-deviation
// forces absorb the change with minimal disturbance — "the placement of
// cells relative to each other is preserved".
//
// An ECO run is a fixed budget of 15 gentle (K = 0.1) transformations, and
// its stop never reads the placement, so its solves need not match the
// global flow's 1e-6: unless the caller sets cfg.CG.Tol, each axis solve
// stops at a relative residual of 1e-3. On the netgen 2k design that cuts
// the run's CG iterations by a third while HPWL and mean displacement move
// by at most 0.01 % and 0.6 % (EXPERIMENTS E31); 1e-2 moved the mean
// displacement by over 1 %.
package eco

import (
	"context"
	"fmt"

	"repro/internal/density"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/place"
)

// cgTol is the CG relative-residual target of an ECO run's axis solves
// when the caller leaves cfg.CG.Tol unset (see the package doc).
const cgTol = 1e-3

// Change is one netlist edit.
type Change struct {
	// AddCell, when non-nil, adds a movable cell.
	AddCell *netlist.Cell
	// AddNet, when non-nil, adds a net; pin cell indices may reference
	// cells added earlier in the same batch (indices continue the
	// existing cell slice).
	AddNet *netlist.Net
	// ResizeCell scales the dimensions of cell Index by Factor (gate
	// resizing).
	ResizeCell *Resize
	// RemoveNet deletes the net with this index (set to -1 when unused).
	RemoveNet int
}

// Resize describes a gate-resizing edit.
type Resize struct {
	Index  int
	Factor float64
}

// Result summarizes an incremental placement.
type Result struct {
	Place place.Result
	// MaxDisplacement and TotalDisplacement measure how much the
	// pre-existing cells moved (new cells excluded).
	MaxDisplacement   float64
	TotalDisplacement float64
	// HPWLBefore/After are measured over the final netlist (before = at
	// the moment after edits, with new cells at their seed positions).
	HPWLBefore float64
	HPWLAfter  float64
}

// Apply performs the edits in order and seeds new cells at the center of
// gravity of their connected placed neighbors (falling back to the region
// center). It returns the indices of the added cells.
func Apply(nl *netlist.Netlist, changes []Change) ([]int, error) {
	var added []int
	for i, ch := range changes {
		switch {
		case ch.AddCell != nil:
			c := *ch.AddCell
			c.Fixed = false
			nl.Cells = append(nl.Cells, c)
			added = append(added, len(nl.Cells)-1)
		case ch.AddNet != nil:
			n := *ch.AddNet
			if n.Weight <= 0 {
				n.Weight = 1
			}
			for _, p := range n.Pins {
				if p.Cell < 0 || p.Cell >= len(nl.Cells) {
					return added, fmt.Errorf("eco: change %d: pin cell %d out of range", i, p.Cell)
				}
			}
			nl.Nets = append(nl.Nets, n)
		case ch.ResizeCell != nil:
			r := ch.ResizeCell
			if r.Index < 0 || r.Index >= len(nl.Cells) {
				return added, fmt.Errorf("eco: change %d: resize cell %d out of range", i, r.Index)
			}
			if r.Factor <= 0 {
				return added, fmt.Errorf("eco: change %d: resize factor %g", i, r.Factor)
			}
			nl.Cells[r.Index].W *= r.Factor
		case ch.RemoveNet >= 0:
			if ch.RemoveNet >= len(nl.Nets) {
				return added, fmt.Errorf("eco: change %d: net %d out of range", i, ch.RemoveNet)
			}
			nl.Nets = append(nl.Nets[:ch.RemoveNet], nl.Nets[ch.RemoveNet+1:]...)
		default:
			return added, fmt.Errorf("eco: change %d is empty", i)
		}
	}
	nl.InvalidateIndex()
	seedNewCells(nl, added)
	return added, nl.Validate()
}

// seedNewCells puts each added cell at the centroid of its placed
// neighbors.
func seedNewCells(nl *netlist.Netlist, added []int) {
	isNew := map[int]bool{}
	for _, ci := range added {
		isNew[ci] = true
	}
	idx := nl.CellNets()
	for _, ci := range added {
		var sum geom.Point
		n := 0
		for _, ni := range idx[ci] {
			for _, p := range nl.Nets[ni].Pins {
				if p.Cell == ci || isNew[p.Cell] {
					continue
				}
				sum = sum.Add(nl.Cells[p.Cell].Pos)
				n++
			}
		}
		if n > 0 {
			nl.Cells[ci].Pos = sum.Scale(1 / float64(n))
		} else {
			nl.Cells[ci].Pos = nl.Region.Outline.Center()
		}
		// Deterministic jitter: cells seeded on exactly the same point
		// would receive identical density forces forever and could never
		// separate.
		j := float64(ci%7) - 3
		k := float64(ci%5) - 2
		nl.Cells[ci].Pos = nl.Region.Outline.ClampPoint(nl.Cells[ci].Pos.Add(geom.Point{
			X: j * 0.21,
			Y: k * 0.13,
		}))
	}
}

// Replace incrementally re-places nl after edits: a KeepPlacement run whose
// forces arise only from the density deviations the edits introduced.
// preEdit must be the snapshot taken before Apply (its length may be
// shorter than the current cell count; only common cells are measured).
//
// Unset fields of cfg take ECO defaults: K = 0.1, 15 transformations and a
// CG tolerance of 1e-3. The run is place.Placer.Continue with no stop
// policy, so its error rule and Result.Place are Run's, NoTrace included.
func Replace(nl *netlist.Netlist, preEdit netlist.Placement, cfg place.Config) (Result, error) {
	cfg.KeepPlacement = true
	if cfg.MaxIter <= 0 || cfg.MaxIter > 30 {
		// ECO wants absorption, not re-placement: few gentle steps.
		cfg.MaxIter = 15
	}
	if cfg.K <= 0 {
		cfg.K = 0.1
	}
	if cfg.CG.Tol <= 0 {
		cfg.CG.Tol = cgTol
	}
	// The §5 formulation: forces arise from the density *deviations* the
	// netlist change introduced, not from the absolute density — the
	// pre-edit demand map is subtracted, so the converged placement's
	// residual unevenness produces no force and only the edit's
	// neighborhood moves.
	var preDemand, sum []float64
	userExtra := cfg.ExtraDemand
	cfg.ExtraDemand = func(g *density.Grid) []float64 {
		if preDemand == nil {
			tmp := density.NewGrid(g.Region, g.NX, g.NY)
			for ci := range preEdit {
				c := &nl.Cells[ci]
				if c.Fixed {
					continue
				}
				tmp.AddArea(geom.RectCenteredAt(preEdit[ci], c.W, c.H), 1)
			}
			preDemand = make([]float64, len(tmp.Demand))
			for i := range preDemand {
				preDemand[i] = -tmp.Demand[i]
			}
		}
		// The grid copies the map it is handed, so preDemand and sum are
		// lent, not given away.
		if userExtra == nil {
			return preDemand
		}
		if sum == nil {
			sum = make([]float64, len(preDemand))
		}
		copy(sum, preDemand)
		for i, v := range userExtra(g) {
			sum[i] += v
		}
		return sum
	}
	res := Result{HPWLBefore: nl.HPWL()}
	// The whole budget runs with no stop policy: the global stopping
	// criterion is already satisfied by the converged pre-edit placement,
	// so Run would exit before the density-deviation forces had any chance
	// to absorb the change.
	pres, err := place.New(nl, cfg).Continue(context.Background(), cfg.MaxIter, nil)
	if err != nil {
		return res, err
	}
	res.Place = pres
	res.HPWLAfter = nl.HPWL()
	for ci := range preEdit {
		if nl.Cells[ci].Fixed {
			continue
		}
		d := preEdit[ci].Dist(nl.Cells[ci].Pos)
		res.TotalDisplacement += d
		if d > res.MaxDisplacement {
			res.MaxDisplacement = d
		}
	}
	return res, nil
}
