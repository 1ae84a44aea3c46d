// Package gordian implements a GORDIAN-style comparison placer [7,14]:
// global quadratic placement alternating with recursive min-cut
// partitioning. Each region's cells are bound to their region by
// center-of-gravity anchor springs; regions split recursively (FM min-cut
// seeded by the analytical positions) until they are small, after which
// cells sit at their last solved positions clamped into their regions.
//
// This is the class of "partitioning based methods which make irreversible
// decisions at early stages" the paper compares against (§6.1).
package gordian

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/obsv"
	"repro/internal/partition"
	"repro/internal/qp"
	"repro/internal/sparse"
)

// Config controls the recursive placement.
type Config struct {
	// MinRegionCells stops subdividing a region at or below this many
	// cells (default 8; deep enough that rows regions also split
	// horizontally and distribute cells vertically).
	MinRegionCells int
	// AnchorWeight scales the region-center springs relative to the mean
	// connectivity (default 0.5).
	AnchorWeight float64
	// Balance is the FM area balance tolerance (default 0.1).
	Balance float64
	// CG configures the solver.
	CG sparse.CGOptions
	// Seed drives FM tie-breaking.
	Seed int64
}

func (c *Config) setDefaults() {
	if c.MinRegionCells <= 0 {
		c.MinRegionCells = 8
	}
	if c.AnchorWeight <= 0 {
		c.AnchorWeight = 0.5
	}
	if c.Balance <= 0 {
		c.Balance = 0.1
	}
	if c.CG.Tol <= 0 {
		c.CG.Tol = 1e-6
	}
}

// Result summarizes a run.
type Result struct {
	Levels  int
	Regions int
	HPWL    float64
	Runtime time.Duration
}

type region struct {
	rect  geom.Rect
	cells []int
}

// Place runs the recursive quadratic placement on nl, writing positions in
// place.
func Place(nl *netlist.Netlist, cfg Config) (Result, error) {
	cfg.setDefaults()
	start := obsv.StartTimer()

	var movable []int
	for ci := range nl.Cells {
		if !nl.Cells[ci].Fixed {
			movable = append(movable, ci)
		}
	}
	regions := []region{{rect: nl.Region.Outline, cells: movable}}

	// Level 0: free global solve.
	if err := solveWithAnchors(nl, nil, cfg); err != nil {
		return Result{}, fmt.Errorf("gordian: level 0: %w", err)
	}

	var res Result
	for level := 1; ; level++ {
		next := make([]region, 0, 2*len(regions))
		split := false
		for _, r := range regions {
			if len(r.cells) <= cfg.MinRegionCells {
				next = append(next, r)
				continue
			}
			a, b := splitRegion(nl, r, cfg, int64(level))
			next = append(next, a, b)
			split = true
		}
		regions = next
		if !split {
			break
		}
		res.Levels = level
		// Re-solve globally with every region pulling its cells toward its
		// center of gravity.
		if err := solveWithAnchors(nl, regions, cfg); err != nil {
			return res, fmt.Errorf("gordian: level %d: %w", level, err)
		}
		clampToRegions(nl, regions)
	}
	clampToRegions(nl, regions)
	res.Regions = len(regions)
	res.HPWL = nl.HPWL()
	res.Runtime = start.Elapsed()
	return res, nil
}

// splitRegion cuts a region along its longer axis. The initial side
// assignment comes from the analytical cell positions (terminal propagation
// in spirit); FM then minimizes the cut under the balance constraint, and
// the geometric cut line is placed to give each side area proportional to
// its cell area.
func splitRegion(nl *netlist.Netlist, r region, cfg Config, salt int64) (region, region) {
	vertical := r.rect.W() >= r.rect.H() // split with a vertical line?
	cells := append([]int(nil), r.cells...)
	sort.Slice(cells, func(a, b int) bool {
		pa, pb := nl.Cells[cells[a]].Pos, nl.Cells[cells[b]].Pos
		if vertical {
			return pa.X < pb.X
		}
		return pa.Y < pb.Y
	})
	// Seed: lower-coordinate half on side 0.
	seed := make([]int, len(cells))
	for i := range seed {
		if i >= len(cells)/2 {
			seed[i] = 1
		}
	}
	pres := partition.Bipartition(nl, cells, seed, partition.Options{
		Balance: cfg.Balance, Seed: cfg.Seed + salt,
	})

	var area0, area1 float64
	for li, ci := range cells {
		if pres.Side[li] == 0 {
			area0 += nl.Cells[ci].Area()
		} else {
			area1 += nl.Cells[ci].Area()
		}
	}
	frac := 0.5
	if area0+area1 > 0 {
		frac = area0 / (area0 + area1)
	}
	ra, rb := cutRect(r.rect, vertical, frac)
	out0 := region{rect: ra}
	out1 := region{rect: rb}
	for li, ci := range cells {
		if pres.Side[li] == 0 {
			out0.cells = append(out0.cells, ci)
		} else {
			out1.cells = append(out1.cells, ci)
		}
	}
	return out0, out1
}

func cutRect(r geom.Rect, vertical bool, frac float64) (geom.Rect, geom.Rect) {
	if frac < 0.1 {
		frac = 0.1
	}
	if frac > 0.9 {
		frac = 0.9
	}
	if vertical {
		x := r.Lo.X + frac*r.W()
		return geom.NewRect(r.Lo.X, r.Lo.Y, x, r.Hi.Y), geom.NewRect(x, r.Lo.Y, r.Hi.X, r.Hi.Y)
	}
	y := r.Lo.Y + frac*r.H()
	return geom.NewRect(r.Lo.X, r.Lo.Y, r.Hi.X, y), geom.NewRect(r.Lo.X, y, r.Hi.X, r.Hi.Y)
}

// solveWithAnchors solves the quadratic system with per-region
// center-of-gravity springs (nil regions = free solve).
func solveWithAnchors(nl *netlist.Netlist, regions []region, cfg Config) error {
	sys := qp.Build(nl, qp.Options{Linearize: true})
	if regions == nil {
		_, err := sys.Solve(nil, cfg.CG)
		return err
	}
	// Anchor each cell toward its region center with a constant force
	// proportional to its offset and its own spring stiffness (so the
	// displacement response is a uniform fraction of the offset), applied
	// over a few fixed-point sweeps. The sweeps converge toward the
	// center-of-gravity-constrained solution without assembling an
	// augmented matrix.
	diag := sys.CellStiffness()
	for sweep := 0; sweep < 4; sweep++ {
		forces := make([]geom.Point, len(nl.Cells))
		for _, r := range regions {
			c := r.rect.Center()
			for _, ci := range r.cells {
				vi := sys.VarOf[ci]
				if vi < 0 {
					continue
				}
				d := c.Sub(nl.Cells[ci].Pos)
				forces[ci] = d.Scale(cfg.AnchorWeight * diag[vi])
			}
		}
		if _, err := sys.SolveDelta(forces, cfg.CG); err != nil {
			return err
		}
	}
	return nil
}

func clampToRegions(nl *netlist.Netlist, regions []region) {
	for _, r := range regions {
		for _, ci := range r.cells {
			c := &nl.Cells[ci]
			c.Pos = r.rect.ClampCenter(c.Pos, min(c.W, r.rect.W()), min(c.H, r.rect.H()))
		}
	}
}

func min(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
