// Package anneal implements a TimberWolf-style simulated-annealing placer
// [2,18,19,20], the paper's main wire-length comparison baseline. Cells
// live on discrete row/slot sites (so the placement is overlap-free by
// construction, like TimberWolf's row-based stages); moves displace a cell
// to an empty site or swap two cells inside a range window that shrinks
// with temperature, and the cost is the (optionally net-weighted) total
// half-perimeter wire length.
package anneal

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/obsv"
)

// Effort selects the preset standing in for the published TimberWolf
// configurations.
type Effort int

const (
	// Medium reproduces the faster published run ([18]).
	Medium Effort = iota
	// High reproduces the slower, better run ([19]).
	High
)

// Config controls the annealer.
type Config struct {
	Effort Effort
	// MovesPerCell is the number of attempted moves per cell per
	// temperature (default by effort: 10 medium / 40 high... see preset).
	MovesPerCell int
	// Cooling is the temperature decay factor per stage (default by
	// effort).
	Cooling float64
	// TStopFactor ends annealing when T < TStopFactor × (mean accepted
	// uphill delta at T0) (default 1e-4).
	TStopFactor float64
	// Weighted uses net weights in the cost (timing-driven TimberWolf
	// [20]).
	Weighted bool
	// BeforeStage, when set, runs before every temperature stage; the
	// timing-driven variant updates net weights here.
	BeforeStage func(stage int, nl *netlist.Netlist)
	Seed        int64
}

func (c *Config) setDefaults() {
	if c.MovesPerCell <= 0 {
		if c.Effort == High {
			c.MovesPerCell = 24
		} else {
			c.MovesPerCell = 8
		}
	}
	if c.Cooling <= 0 || c.Cooling >= 1 {
		if c.Effort == High {
			c.Cooling = 0.93
		} else {
			c.Cooling = 0.85
		}
	}
	if c.TStopFactor <= 0 {
		c.TStopFactor = 1e-4
	}
}

// Result summarizes an annealing run.
type Result struct {
	Stages   int
	Moves    int
	Accepted int
	HPWL     float64
	Runtime  time.Duration
}

// site-grid state shared by the run.
type state struct {
	nl    *netlist.Netlist
	cfg   Config
	rng   *rand.Rand
	rows  int
	cols  int
	slotW float64
	rowY  []float64
	// grid[r*cols+c] = cell index or -1.
	grid []int
	// siteOf[cell] = packed site index, -1 for fixed/unplaced.
	siteOf []int
	// cost bookkeeping
	netCost []float64 // weighted HPWL per net
	cost    float64
}

// Place anneals nl's movable cells and writes the resulting positions.
func Place(nl *netlist.Netlist, cfg Config) (Result, error) {
	cfg.setDefaults()
	start := obsv.StartTimer()
	s := newState(nl, cfg)
	res := s.run()
	res.Runtime = start.Elapsed()
	res.HPWL = nl.HPWL()
	return res, nil
}

func newState(nl *netlist.Netlist, cfg Config) *state {
	s := &state{nl: nl, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	// Site grid: rows from the region; columns sized by the average cell
	// width so total capacity comfortably exceeds the cell count.
	s.rows = len(nl.Region.Rows)
	if s.rows == 0 {
		// Floorplanning region: synthesize rows one average-cell tall.
		h := math.Sqrt(nl.AvgCellArea())
		if h <= 0 {
			h = 1
		}
		s.rows = int(nl.Region.H()/h) + 1
	}
	nMov := nl.NumMovable()
	var wSum float64
	for i := range nl.Cells {
		if !nl.Cells[i].Fixed {
			wSum += nl.Cells[i].W
		}
	}
	avgW := wSum / float64(max(nMov, 1))
	s.cols = int(nl.Region.W()/avgW) + 1
	for s.rows*s.cols < nMov {
		s.cols++
	}
	// Distribute columns evenly across the region width so every site
	// center lies inside the outline.
	s.slotW = nl.Region.W() / float64(s.cols)
	s.rowY = make([]float64, s.rows)
	if len(nl.Region.Rows) > 0 {
		for r, row := range nl.Region.Rows {
			s.rowY[r] = row.Y + row.Height/2
		}
	} else {
		rh := nl.Region.H() / float64(s.rows)
		for r := range s.rowY {
			s.rowY[r] = nl.Region.Outline.Lo.Y + (float64(r)+0.5)*rh
		}
	}

	s.grid = make([]int, s.rows*s.cols)
	for i := range s.grid {
		s.grid[i] = -1
	}
	s.siteOf = make([]int, len(nl.Cells))
	for i := range s.siteOf {
		s.siteOf[i] = -1
	}
	// Initial assignment: row-major scan in cell order (a random-ish but
	// deterministic start).
	site := 0
	for ci := range nl.Cells {
		if nl.Cells[ci].Fixed {
			continue
		}
		s.place(ci, site)
		site++
	}
	// Cost bookkeeping.
	s.netCost = make([]float64, len(nl.Nets))
	for ni := range nl.Nets {
		s.netCost[ni] = s.netHPWL(ni)
		s.cost += s.netCost[ni]
	}
	return s
}

func (s *state) sitePos(site int) geom.Point {
	r := site / s.cols
	c := site % s.cols
	// The last column can stick out when W is not a slot multiple; clamp
	// into the outline.
	return s.nl.Region.Outline.ClampPoint(geom.Point{
		X: s.nl.Region.Outline.Lo.X + (float64(c)+0.5)*s.slotW,
		Y: s.rowY[r],
	})
}

func (s *state) place(ci, site int) {
	s.grid[site] = ci
	s.siteOf[ci] = site
	s.nl.Cells[ci].Pos = s.sitePos(site)
}

func (s *state) netHPWL(ni int) float64 {
	w := 1.0
	if s.cfg.Weighted {
		w = s.nl.Nets[ni].Weight
	}
	return w * s.nl.NetHPWL(ni)
}

// run executes the cooling schedule.
func (s *state) run() Result {
	nl := s.nl
	nMov := nl.NumMovable()
	if nMov < 2 {
		return Result{}
	}
	movesPerStage := s.cfg.MovesPerCell * nMov

	// Initial temperature: sample random moves, T0 = 20×σ of deltas, the
	// standard heuristic giving a ≈high initial acceptance.
	var sum, sum2 float64
	const probes = 200
	for i := 0; i < probes; i++ {
		d := s.probeDelta()
		sum += d
		sum2 += d * d
	}
	sigma := math.Sqrt(math.Max(0, sum2/probes-(sum/probes)*(sum/probes)))
	t := 20 * sigma
	if t <= 0 {
		t = 1
	}
	tStop := s.cfg.TStopFactor * t

	// Range limiter: window spans the whole chip hot, one slot cold.
	maxWin := max(s.cols, s.rows)

	var res Result
	for stage := 0; t > tStop; stage++ {
		if s.cfg.BeforeStage != nil {
			s.cfg.BeforeStage(stage, nl)
			if s.cfg.Weighted {
				s.recost()
			}
		}
		// Window shrinks with the temperature ratio (log-linear).
		frac := math.Log(t/tStop) / math.Log(20*sigma/tStop+1e-12)
		win := int(float64(maxWin) * frac)
		if win < 1 {
			win = 1
		}
		accepted := 0
		for m := 0; m < movesPerStage; m++ {
			if s.attempt(t, win) {
				accepted++
			}
		}
		res.Moves += movesPerStage
		res.Accepted += accepted
		res.Stages = stage + 1
		t *= s.cfg.Cooling
		// Early exit: a frozen stage (almost nothing accepted) ends the
		// schedule.
		if float64(accepted) < 0.002*float64(movesPerStage) {
			break
		}
	}
	return res
}

// probeDelta evaluates (and reverts) one random move, returning |Δcost|.
func (s *state) probeDelta() float64 {
	ci := s.randomCell()
	if ci < 0 {
		return 0
	}
	target := s.rng.Intn(len(s.grid))
	d := s.moveDelta(ci, target)
	return math.Abs(d)
}

func (s *state) randomCell() int {
	for tries := 0; tries < 64; tries++ {
		site := s.rng.Intn(len(s.grid))
		if s.grid[site] >= 0 {
			return s.grid[site]
		}
	}
	return -1
}

// attempt tries one Metropolis move within the window; returns accepted.
func (s *state) attempt(t float64, win int) bool {
	ci := s.randomCell()
	if ci < 0 {
		return false
	}
	site := s.siteOf[ci]
	r, c := site/s.cols, site%s.cols
	nr := clampInt(r+s.rng.Intn(2*win+1)-win, 0, s.rows-1)
	nc := clampInt(c+s.rng.Intn(2*win+1)-win, 0, s.cols-1)
	target := nr*s.cols + nc
	if target == site {
		return false
	}
	delta := s.moveDelta(ci, target)
	if delta <= 0 || s.rng.Float64() < math.Exp(-delta/t) {
		s.commitMove(ci, target)
		return true
	}
	return false
}

// moveDelta computes the cost change of moving ci to target (swapping with
// any occupant) without committing.
func (s *state) moveDelta(ci, target int) float64 {
	src := s.siteOf[ci]
	occupant := s.grid[target]
	nets := s.touchedNets(ci, occupant)

	before := 0.0
	for _, ni := range nets {
		before += s.netCost[ni]
	}
	// Tentatively move.
	s.nl.Cells[ci].Pos = s.sitePos(target)
	if occupant >= 0 {
		s.nl.Cells[occupant].Pos = s.sitePos(src)
	}
	after := 0.0
	for _, ni := range nets {
		after += s.netHPWL(ni)
	}
	// Revert.
	s.nl.Cells[ci].Pos = s.sitePos(src)
	if occupant >= 0 {
		s.nl.Cells[occupant].Pos = s.sitePos(target)
	}
	return after - before
}

func (s *state) commitMove(ci, target int) {
	src := s.siteOf[ci]
	occupant := s.grid[target]
	s.grid[src] = -1
	s.place(ci, target)
	if occupant >= 0 {
		s.place(occupant, src)
	}
	for _, ni := range s.touchedNets(ci, occupant) {
		nc := s.netHPWL(ni)
		s.cost += nc - s.netCost[ni]
		s.netCost[ni] = nc
	}
}

func (s *state) touchedNets(ci, occupant int) []int {
	idx := s.nl.CellNets()
	nets := idx[ci]
	if occupant >= 0 {
		// Merge without duplicates (small slices; linear scan is fine).
		merged := append([]int(nil), nets...)
		for _, ni := range idx[occupant] {
			dup := false
			for _, m := range merged {
				if m == ni {
					dup = true
					break
				}
			}
			if !dup {
				merged = append(merged, ni)
			}
		}
		return merged
	}
	return nets
}

// recost rebuilds the cost table after net weights changed.
func (s *state) recost() {
	s.cost = 0
	for ni := range s.nl.Nets {
		s.netCost[ni] = s.netHPWL(ni)
		s.cost += s.netCost[ni]
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
