package timing

import (
	"context"
	"math"

	"repro/internal/netlist"
	"repro/internal/place"
)

// DrivenResult reports a timing-driven placement run.
type DrivenResult struct {
	Place      place.Result
	Before     float64 // longest path before optimization (s)
	After      float64 // longest path at the final placement (s)
	LowerBound float64 // zero-wire-length bound (s)
	Analyses   int
}

// Exploitation returns how much of the optimization potential was used:
// (before−after) / (before−lowerBound), the paper's §6.2 quality measure
// comparing methods across different timing models.
func (r DrivenResult) Exploitation() float64 {
	pot := r.Before - r.LowerBound
	if pot <= 0 {
		return 0
	}
	return (r.Before - r.After) / pot
}

// PlaceDriven runs timing-driven global placement: before every placement
// transformation a longest-path analysis updates net criticalities and
// weights (§5, "Timing Optimization"). before should be the longest path of
// a non-timing-driven placement of the same circuit (pass 0 to measure it
// with a plain run first).
func PlaceDriven(nl *netlist.Netlist, cfg place.Config, params Params, before float64) (DrivenResult, error) {
	params.setDefaults()
	if before <= 0 {
		plain := nl.Clone()
		if _, err := place.Global(plain, cfg); err != nil {
			return DrivenResult{}, err
		}
		before = NewAnalyzer(plain, params).Analyze().MaxDelay
	}

	analyzer := NewAnalyzer(nl, params)
	weighter := NewWeighter(nl)
	analyses := 0
	userHook := cfg.BeforeTransform
	cfg.BeforeTransform = func(iter int, p *place.Placer) {
		if userHook != nil {
			userHook(iter, p)
		}
		rep := analyzer.Analyze()
		analyses++
		weighter.Update(nl, rep)
		p.Pull(weighter.PullForces(nl))
	}
	placer := place.New(nl, cfg)
	res, err := placer.Run(context.Background())
	if err != nil {
		return DrivenResult{}, err
	}

	// Polish phase: the spreading run has converged; keep adapting weights
	// and stepping while the longest path still falls ("even in late
	// stages the placement has the ability to change globally", §5). The
	// polish continues the converged placer, so its steps start from the
	// step-control gain the run settled at; a fresh placer would restart
	// at the full step and shake the spread placement (kbench -table 4
	// average 45.9 % → 52.0 %, EXPERIMENTS E25). The placer keeps the
	// wrapped hook, so each polish step updates the weights twice: in the
	// loop body and again in the hook. Running only the caller's hook
	// there measured lower exploitation (average 46.2 % → 43.8 %, E24).
	best := nl.Snapshot()
	bestDelay := analyzer.Analyze().MaxDelay
	sinceBest := 0
	for step := 0; step < 60 && sinceBest < 15; step++ {
		rep := analyzer.Analyze()
		analyses++
		weighter.Update(nl, rep)
		placer.Pull(weighter.PullForces(nl))
		if _, err := placer.Step(); err != nil && step == 0 {
			break
		}
		if d := analyzer.Analyze().MaxDelay; d < bestDelay {
			bestDelay = d
			best = nl.Snapshot()
			sinceBest = 0
		} else {
			sinceBest++
		}
	}
	nl.Restore(best)

	after := analyzer.Analyze().MaxDelay
	return DrivenResult{
		Place:      res,
		Before:     before,
		After:      after,
		LowerBound: LowerBound(nl, params),
		Analyses:   analyses,
	}, nil
}

// TradeoffPoint is one step of the timing/area tradeoff curve recorded
// while meeting a timing requirement.
type TradeoffPoint struct {
	Step     int
	HPWL     float64
	MaxDelay float64
}

// MeetResult reports a MeetRequirement run.
type MeetResult struct {
	// Met says whether the requirement was reached.
	Met bool
	// Final is the longest path of the returned placement.
	Final float64
	// HPWL is the wire length of the returned placement.
	HPWL float64
	// Curve is the recorded timing/area tradeoff, step by step.
	Curve []TradeoffPoint
	// Steps is the number of phase-2 placement transformations executed.
	Steps int
}

// MeetRequirement implements the paper's two-phase flow for meeting a
// timing requirement (§5): first a plain area-optimized placement, then
// net-weight-adapted placement transformations until the longest path —
// measured on the actual placement, so the result is guaranteed — drops
// under req. The full tradeoff curve is recorded. maxSteps bounds phase 2
// (0 means 200).
func MeetRequirement(nl *netlist.Netlist, cfg place.Config, params Params, req float64, maxSteps int) (MeetResult, error) {
	params.setDefaults()
	if maxSteps <= 0 {
		maxSteps = 200
	}
	// Phase 1: plain run until convergence.
	if _, err := place.Global(nl, cfg); err != nil {
		return MeetResult{}, err
	}
	analyzer := NewAnalyzer(nl, params)
	weighter := NewWeighter(nl)

	rep := analyzer.Analyze()
	out := MeetResult{
		Curve: []TradeoffPoint{{Step: 0, HPWL: nl.HPWL(), MaxDelay: rep.MaxDelay}},
		Final: rep.MaxDelay,
		HPWL:  nl.HPWL(),
	}
	if rep.MaxDelay <= req {
		out.Met = true
		return out, nil
	}

	// Phase 2: continue transformations with weight adaption, starting
	// from the converged placement.
	cfg.KeepPlacement = true
	placer := place.New(nl, cfg)
	if err := placer.Initialize(); err != nil {
		return out, err
	}
	best := nl.Snapshot()
	bestDelay := rep.MaxDelay
	sinceBest := 0
	for step := 1; step <= maxSteps && sinceBest < 30; step++ {
		weighter.Update(nl, rep)
		placer.Pull(weighter.PullForces(nl))
		if _, err := placer.Step(); err != nil && step == 1 {
			return out, err
		}
		rep = analyzer.Analyze()
		out.Steps = step
		out.Curve = append(out.Curve, TradeoffPoint{Step: step, HPWL: nl.HPWL(), MaxDelay: rep.MaxDelay})
		if rep.MaxDelay < bestDelay {
			bestDelay = rep.MaxDelay
			best = nl.Snapshot()
			sinceBest = 0
		} else {
			sinceBest++
		}
		if rep.MaxDelay <= req {
			out.Met = true
			out.Final = rep.MaxDelay
			out.HPWL = nl.HPWL()
			return out, nil
		}
	}
	// Phase 2 stalled above the requirement. Escalate: a full re-placement
	// with weight adaption before every transformation ("even in late
	// stages the placement has the ability to change globally", §5) can
	// restructure far more than perturbing the converged placement. The
	// result is still measured on the actual placement, so the guarantee
	// stands.
	cfg.KeepPlacement = false
	full := place.New(nl, cfg)
	if err := full.Initialize(); err == nil {
		maxIter := cfg.MaxIter
		if maxIter <= 0 {
			maxIter = 120
		}
		for step := 0; step < maxIter; step++ {
			rep = analyzer.Analyze()
			weighter.Update(nl, rep)
			full.Pull(weighter.PullForces(nl))
			stats, err := full.Step()
			if err != nil && step == 0 {
				break
			}
			rep = analyzer.Analyze()
			out.Steps++
			out.Curve = append(out.Curve, TradeoffPoint{Step: out.Steps, HPWL: nl.HPWL(), MaxDelay: rep.MaxDelay})
			if rep.MaxDelay < bestDelay && full.Done(stats) {
				bestDelay = rep.MaxDelay
				best = nl.Snapshot()
			}
			if rep.MaxDelay <= req && full.Done(stats) {
				out.Met = true
				out.Final = rep.MaxDelay
				out.HPWL = nl.HPWL()
				return out, nil
			}
		}
	}

	// Requirement not reachable: return the best placement seen.
	nl.Restore(best)
	out.Final = bestDelay
	out.HPWL = nl.HPWL()
	out.Met = bestDelay <= req || math.Abs(bestDelay-req) < 1e-15
	return out, nil
}
