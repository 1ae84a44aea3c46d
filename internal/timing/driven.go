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
// with a plain run of a copy, which reports to no OnIteration). Place
// covers the §4.2 run and the polish after it, with the run's StopReason.
func PlaceDriven(nl *netlist.Netlist, cfg place.Config, params Params, before float64) (DrivenResult, error) {
	params.setDefaults()
	if before <= 0 {
		plain, probe := nl.Clone(), cfg
		probe.OnIteration = nil
		if _, err := place.Global(plain, probe); err != nil {
			return DrivenResult{}, err
		}
		before = NewAnalyzer(plain, params).Analyze().MaxDelay
	}

	analyzer, weighter := NewAnalyzer(nl, params), NewWeighter(nl)
	analyses := 0
	adapt := func(p *place.Placer) {
		analyses++
		weighter.Update(nl, analyzer.Analyze())
		p.Pull(weighter.PullForces(nl))
	}
	polishing := false
	userHook := cfg.BeforeTransform
	cfg.BeforeTransform = func(iter int, p *place.Placer) {
		// A polish step updates the weights before and after the caller's
		// hook, and Analyses counts both. Updating once there measured
		// lower exploitation (average 46.2 % → 43.8 %, E24).
		if polishing {
			adapt(p)
		}
		if userHook != nil {
			userHook(iter, p)
		}
		adapt(p)
	}
	placer := place.New(nl, cfg)
	res, err := placer.Run(context.Background())
	if err != nil {
		return DrivenResult{}, err
	}

	// Polish phase: keep adapting weights and stepping while the longest
	// path still falls ("even in late stages the placement has the ability
	// to change globally", §5). Continuing the converged placer keeps the
	// step-control gain the run settled at; a fresh placer would restart at
	// the full step and shake the spread placement (kbench -table 4 average
	// 45.9 % → 52.0 %, EXPERIMENTS E25).
	polishing = true
	pol := &delayPolicy{nl: nl, analyzer: analyzer, req: math.Inf(-1), patience: 15,
		best: nl.Snapshot(), bestDelay: analyzer.Analyze().MaxDelay, bestOvf: res.Overflow}
	pres, err := placer.Continue(context.Background(), 60, pol.stop)
	if err != nil {
		return DrivenResult{}, err
	}
	nl.Restore(pol.best)
	res.Iterations, res.HPWL, res.Overflow = pres.Iterations, nl.HPWL(), pol.bestOvf
	res.Trace = append(res.Trace, pres.Trace...)
	res.Phases.Add(pres.Phases)
	res.Runtime += pres.Runtime

	return DrivenResult{
		Place:      res,
		Before:     before,
		After:      analyzer.Analyze().MaxDelay,
		LowerBound: LowerBound(nl, params),
		Analyses:   analyses,
	}, nil
}

// delayPolicy is the timing flows' stop policy for place.Placer.Continue.
// After each transformation it analyzes the placement (rep) and keeps the
// one with the shortest longest path (best). It stops with StopCriterion
// once that path is at most req, and with StopStagnation after patience
// transformations without a new best (0: never). With spread set, only a
// spread placement counts (the escalation's §4.2 criterion). A non-nil
// curve gets one point per transformation.
type delayPolicy struct {
	nl                  *netlist.Netlist
	analyzer            *Analyzer
	req                 float64
	patience, sinceBest int
	spread              func(place.IterStats) bool
	curve               []TradeoffPoint
	rep                 Report
	best                netlist.Placement
	bestDelay, bestOvf  float64
}

func (t *delayPolicy) stop(s place.IterStats) place.StopReason {
	t.rep = t.analyzer.Analyze()
	d := t.rep.MaxDelay
	if t.curve != nil {
		t.curve = append(t.curve, TradeoffPoint{Step: len(t.curve), HPWL: s.HPWL, MaxDelay: d})
	}
	counts := t.spread == nil || t.spread(s)
	if d < t.bestDelay && counts {
		t.best = t.nl.SnapshotInto(t.best)
		t.bestDelay, t.bestOvf, t.sinceBest = d, s.Overflow, 0
	} else {
		t.sinceBest++
	}
	switch {
	case d <= t.req && counts:
		return place.StopCriterion
	case t.patience > 0 && t.sinceBest >= t.patience:
		return place.StopStagnation
	}
	return ""
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
	// After phase 1, which adapts no weights, each transformation adapts
	// them to the policy's analysis of the placement it starts from.
	analyzer, weighter := NewAnalyzer(nl, params), NewWeighter(nl)
	var pol *delayPolicy
	userHook := cfg.BeforeTransform
	cfg.BeforeTransform = func(iter int, p *place.Placer) {
		if pol != nil {
			weighter.Update(nl, pol.rep)
			p.Pull(weighter.PullForces(nl))
		}
		if userHook != nil {
			userHook(iter, p)
		}
	}
	// Phase 1: plain run until convergence.
	phase1 := place.New(nl, cfg)
	_, err := phase1.Run(context.Background())
	if err != nil {
		return MeetResult{}, err
	}
	rep := analyzer.Analyze()
	pol = &delayPolicy{nl: nl, analyzer: analyzer, req: req, patience: 30, rep: rep, best: nl.Snapshot(),
		bestDelay: rep.MaxDelay, curve: []TradeoffPoint{{Step: 0, HPWL: nl.HPWL(), MaxDelay: rep.MaxDelay}}}
	// A placement that meets req becomes the best one seen, so bestDelay
	// tells whether req is met, and the flow returns best either way.
	if rep.MaxDelay > req {
		// Phase 2: weight adaption from the converged placement, on a fresh
		// KeepPlacement placer (continuing phase1 would move placements).
		cfg.KeepPlacement = true
		_, err = place.New(nl, cfg).Continue(context.Background(), maxSteps, pol.stop)
	}
	if err == nil && pol.bestDelay > req {
		// Phase 2 stalled above the requirement. Escalate to a full
		// re-placement with weight adaption, which can restructure far
		// more (§5); a placement counts only once it is spread.
		cfg.KeepPlacement = false
		full := place.New(nl, cfg)
		if full.Initialize() == nil {
			budget := cfg.MaxIter
			if budget <= 0 {
				budget = 120
			}
			pol.rep, pol.patience, pol.spread = analyzer.Analyze(), 0, full.Done
			_, err = full.Continue(context.Background(), budget, pol.stop)
		}
	}
	if err != nil {
		return MeetResult{}, err
	}

	nl.Restore(pol.best)
	out := MeetResult{Final: pol.bestDelay, HPWL: nl.HPWL(), Curve: pol.curve, Steps: len(pol.curve) - 1}
	out.Met = out.Final <= req || math.Abs(out.Final-req) < 1e-15
	return out, nil
}
