package qp

import (
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/sparse"
)

// Assembler keeps the sparsity pattern and storage of one netlist's system
// across repeated assemblies; Build is the first assembly of a fresh one.
// The iterative algorithm rebuilds C·p + d + e = 0 on every placement
// transformation, but the sparsity pattern is fixed by the netlist
// topology; only the spring weights change (per iteration under
// linearization, on explicit re-weighting otherwise).
//
// The first assembly records a contribution map (see contribMap); each
// later one refills the cached CSR and d vectors through it in two passes,
// with no sorting, no merging and no allocation. When the values cannot
// have changed at all (no linearization, identical net weights) the cached
// system is returned untouched.
type Assembler struct {
	nl   *netlist.Netlist
	opts Options

	sys *System
	cm  *contribMap

	// lastWeights backs the full-skip test: without linearization, C and
	// d depend only on the net weights and the (never moving) fixed pins,
	// so unchanged weights mean an unchanged system. A linearized system
	// depends on positions and always refills.
	lastWeights []float64

	// Topology fingerprint guarding the cache; a changed cell or net count
	// forces a fresh contribution map.
	cells, nets int
}

// NewAssembler prepares a cached assembler for nl. The netlist may move
// freely and change net weights between Assemble calls; structural edits
// (adding/removing cells, nets or pins, toggling Fixed flags) require a
// new Assembler. Changed cell, net or per-net pin counts are detected and
// rebuilt automatically; same-count structural swaps are not.
func NewAssembler(nl *netlist.Netlist, opts Options) *Assembler {
	return &Assembler{nl: nl, opts: opts}
}

// Assemble returns the system for the netlist's current state. The returned
// *System is owned by the assembler and overwritten by the next Assemble.
func (a *Assembler) Assemble() *System {
	nl := a.nl
	if a.sys != nil && (len(nl.Cells) != a.cells || len(nl.Nets) != a.nets) {
		a.sys, a.cm, a.lastWeights = nil, nil, nil
	}
	if a.sys == nil {
		a.rebuild()
		return a.sys
	}
	if !a.opts.Linearize && a.weightsUnchanged() {
		return a.sys
	}
	if !a.cm.refill() {
		// A net's pin count changed at constant cell and net counts; the
		// recorded map no longer fits.
		a.rebuild()
		return a.sys
	}
	a.captureWeights()
	return a.sys
}

func (a *Assembler) rebuild() {
	s := newSkeleton(a.nl, a.opts)
	a.cm = newContribMap(s)
	a.sys = s
	a.cells = len(a.nl.Cells)
	a.nets = len(a.nl.Nets)
	if !a.cm.refill() {
		panic("qp: contribution map does not fit the netlist it was recorded from")
	}
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
		// Bit-exact on purpose: any weight change, however small, has to
		// trigger a refill.
		if a.nl.Nets[i].Weight != a.lastWeights[i] {
			return false
		}
	}
	return true
}

// contribMap is the assembly of one netlist topology, recorded once so
// that every later assembly is two flat passes:
//
//  1. values: each net writes its spring values into spring, its d terms
//     into pull, and its weight total into netW, at offsets fixed by the
//     net's pin count (mOff, dOff);
//  2. sums: each matrix entry, and each entry of Dx and Dy, sums its
//     contributions in insertion order (eRef, dRef): nets in net order,
//     then the anchor springs (see walk).
//
// Between the passes totalW is summed in net order and the anchor written
// to slot 0. Every sum starts from +0 and adds its contributions in the
// same order on every assembly, so a refill is bit-identical to a fresh
// map's first assembly, and the pattern depends on the topology alone: it
// keeps entries whose value sums to zero. Each pass is split in two halves
// of about equal work, one per par.Fork lane; the halves write disjoint
// slots, so the result does not depend on whether they run side by side.
type contribMap struct {
	s *System

	// Pass 1 output. A clique net has one spring value and one d term per
	// pin pair, a star net two spring values (the center's diagonal and
	// the spoke weight) and one d term per pin. Slot 0 holds the anchor
	// spring and the anchor's pull to the region center; nets start at
	// slot 1. Spring slot i is spring[i]; d slot i is pull[2i:2i+2], its
	// x and y terms.
	mOff, dOff []int32
	spring     []float64
	pull       []float64
	netW       []float64

	// Pass 2 input: matrix entry k sums the spring slots referenced by
	// eRef[ePtr[k]:ePtr[k+1]], and variable i's (Dx, Dy) sums the d slots
	// referenced by dRef[dPtr[i]:dPtr[i+1]]. Reference 2i adds slot i and
	// 2i+1 subtracts it: pass 2 multiplies the slot by signs[r&1], an
	// exact negation, so adding −v is bit for bit a subtraction of v, and
	// the loop never branches on the sign.
	ePtr, eRef []int32
	dPtr, dRef []int32

	// rowPtr and cvals are s.C's row offsets and values, which pass 2
	// writes in place.
	rowPtr []int
	cvals  []float64

	values [2]valuesHalf
	sums   [2]sumsHalf
	// fork reports whether the passes carry enough work, par.Threshold
	// contributions, to split across the lanes.
	fork bool
}

// valuesHalf runs pass 1 over the nets [lo, hi).
type valuesHalf struct {
	cm     *contribMap
	lo, hi int
	ok     bool
}

func (t *valuesHalf) Run() { t.ok = t.cm.netValues(t.lo, t.hi) }

// sumsHalf runs pass 2 over the variables [lo, hi).
type sumsHalf struct {
	cm     *contribMap
	lo, hi int
}

func (t *sumsHalf) Run() { t.cm.sumRows(t.lo, t.hi) }

// newContribMap records s's assembly: the slot layout of every net, the
// CSR pattern, which becomes s.C, and the contributions of every entry in
// insertion order.
func newContribMap(s *System) *contribMap {
	nl := s.nl
	cm := &contribMap{s: s}
	n := s.N()
	nets := len(nl.Nets)
	cm.mOff = make([]int32, nets+1)
	cm.dOff = make([]int32, nets+1)
	m, d := int32(1), int32(1)
	for ni := range nl.Nets {
		cm.mOff[ni], cm.dOff[ni] = m, d
		dm, dd := netSlots(len(nl.Nets[ni].Pins))
		m += dm
		d += dd
	}
	cm.mOff[nets], cm.dOff[nets] = m, d
	cm.spring = make([]float64, m)
	cm.pull = make([]float64, 2*d)
	cm.netW = make([]float64, nets)

	// Bucket every insertion by row and every d update by variable, in
	// assembly order: one walk counts them, a second writes each one's
	// column and reference.
	rowPtr := make([]int32, n+1)
	cm.dPtr = make([]int32, n+1)
	s.walk(func(i, _ int, _ int32) { rowPtr[i+1]++ }, func(v int, _ int32) { cm.dPtr[v+1]++ })
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
		cm.dPtr[i+1] += cm.dPtr[i]
	}
	cols := make([]int32, rowPtr[n])
	cm.eRef = make([]int32, rowPtr[n])
	cm.dRef = make([]int32, cm.dPtr[n])
	fill := make([]int32, 2*n)
	mfill, dfill := fill[:n], fill[n:]
	s.walk(func(i, j int, ref int32) {
		k := rowPtr[i] + mfill[i]
		cols[k], cm.eRef[k] = int32(j), ref
		mfill[i]++
	}, func(v int, ref int32) {
		cm.dRef[cm.dPtr[v]+dfill[v]] = ref
		dfill[v]++
	})

	// Order each row by column, stably, so equal columns keep their
	// insertion order; each run of one column is one stored entry.
	nnz := 0
	for i := 0; i < n; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		sortByCol(cols[lo:hi], cm.eRef[lo:hi])
		for k := lo; k < hi; k++ {
			if k == lo || cols[k] != cols[k-1] {
				nnz++
			}
		}
	}
	cm.ePtr = make([]int32, 0, nnz+1)
	cm.rowPtr = make([]int, n+1)
	csrCols := make([]int, 0, nnz)
	for i := 0; i < n; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		for k := lo; k < hi; k++ {
			if k == lo || cols[k] != cols[k-1] {
				cm.ePtr = append(cm.ePtr, k)
				csrCols = append(csrCols, int(cols[k]))
			}
		}
		cm.rowPtr[i+1] = len(csrCols)
	}
	cm.ePtr = append(cm.ePtr, rowPtr[n])
	cm.cvals = make([]float64, len(csrCols))
	s.C = sparse.NewCSR(cm.rowPtr, csrCols, cm.cvals)

	// Split each pass where half its contributions lie behind.
	netSplit := 0
	for netSplit < nets && 2*cm.dOff[netSplit] < d {
		netSplit++
	}
	rowSplit := 0
	half := len(cm.eRef) + len(cm.dRef)
	for rowSplit < n && 2*int(rowPtr[rowSplit]+cm.dPtr[rowSplit]) < half {
		rowSplit++
	}
	cm.values = [2]valuesHalf{{cm: cm, lo: 0, hi: netSplit}, {cm: cm, lo: netSplit, hi: nets}}
	cm.sums = [2]sumsHalf{{cm: cm, lo: 0, hi: rowSplit}, {cm: cm, lo: rowSplit, hi: n}}
	cm.fork = half >= par.Threshold
	return cm
}

// netSlots returns how many spring values and d terms a net of k pins
// writes in pass 1.
func netSlots(k int) (m, d int32) {
	if k >= starMinPins {
		return 2, int32(k)
	}
	pairs := int32(k * (k - 1) / 2)
	return pairs, pairs
}

// sortByCol orders cols ascending, carrying refs along; equal columns keep
// their order. Rows are short and mostly sorted already, where insertion
// sort is fastest.
func sortByCol(cols, refs []int32) {
	for i := 1; i < len(cols); i++ {
		c, r := cols[i], refs[i]
		j := i - 1
		for ; j >= 0 && cols[j] > c; j-- {
			cols[j+1], refs[j+1] = cols[j], refs[j]
		}
		cols[j+1], refs[j+1] = c, r
	}
}

// walk states the assembly's insertion sequence without values: each
// matrix insertion (row i, column j) and each d update of variable v is
// reported, in assembly order, with its reference (see contribMap). A star
// net adds its center's diagonal, then per movable pin the pin's diagonal
// and the symmetric spoke; a clique net adds, per pin pair, both diagonals
// and the symmetric edge, or one diagonal against a fixed pin. The anchor
// springs come last.
func (s *System) walk(mat func(i, j int, ref int32), dvec func(v int, ref int32)) {
	add := func(slot int32) int32 { return 2 * slot }
	sub := func(slot int32) int32 { return 2*slot + 1 }
	nl := s.nl
	m, d := int32(1), int32(1)
	center := len(s.CellOf)
	for ni := range nl.Nets {
		pins := nl.Nets[ni].Pins
		if len(pins) >= starMinPins {
			c := center
			center++
			cc, w := m, m+1
			mat(c, c, add(cc))
			for _, p := range pins {
				if vi := s.VarOf[p.Cell]; vi >= 0 {
					mat(vi, vi, add(w))
					mat(vi, c, sub(w))
					mat(c, vi, sub(w))
					dvec(vi, add(d))
					dvec(c, sub(d))
				} else {
					dvec(c, sub(d))
				}
				d++
			}
			m += 2
			continue
		}
		for i := range pins {
			for j := i + 1; j < len(pins); j++ {
				va, vb := s.VarOf[pins[i].Cell], s.VarOf[pins[j].Cell]
				switch {
				case va >= 0 && vb >= 0:
					mat(va, va, add(m))
					mat(vb, vb, add(m))
					mat(va, vb, sub(m))
					if va != vb {
						mat(vb, va, sub(m))
					}
					dvec(va, add(d))
					dvec(vb, sub(d))
				case va >= 0:
					mat(va, va, add(m))
					dvec(va, add(d))
				case vb >= 0:
					mat(vb, vb, add(m))
					dvec(vb, add(d))
				}
				m++
				d++
			}
		}
	}
	for vi := range s.CellOf {
		mat(vi, vi, add(0))
		dvec(vi, sub(0))
	}
}

// refill runs both passes for the netlist's current state. It reports
// false, leaving the system unspecified, when a net's pin count no longer
// matches the recorded layout.
func (cm *contribMap) refill() bool {
	s := cm.s
	s.cholDirty = true // values change; the cached factor must refresh
	s.cholBroken = false
	v := &cm.values
	cm.run(&v[0], &v[1])
	if !v[0].ok || !v[1].ok {
		return false
	}
	totalW := 0.0
	for _, w := range cm.netW {
		totalW += w
	}
	// Anchor springs to the region center keep C strictly positive
	// definite even for floating components, and bound the displacement
	// response of isolated cell islands to external forces.
	anchor := anchorScale * (totalW/float64(max(len(s.CellOf), 1)) + 1)
	c := s.nl.Region.Outline.Center()
	cm.setSpring(0, anchor)
	cm.setPull(0, anchor*c.X, anchor*c.Y)
	cm.run(&cm.sums[0], &cm.sums[1])
	return true
}

// run runs a pass's two halves, on both lanes when the pass is big enough.
func (cm *contribMap) run(a, b par.Task) {
	if cm.fork {
		par.Fork(a, b)
		return
	}
	a.Run()
	b.Run()
}

// netValues is pass 1 over the nets [lo, hi): each net's spring values
// and d terms, written to its slots.
func (cm *contribMap) netValues(lo, hi int) bool {
	s := cm.s
	nl := s.nl
	for ni := lo; ni < hi; ni++ {
		net := &nl.Nets[ni]
		m, d := cm.mOff[ni], cm.dOff[ni]
		dm, dd := netSlots(len(net.Pins))
		if cm.mOff[ni+1]-m != dm || cm.dOff[ni+1]-d != dd {
			return false
		}
		if len(net.Pins) >= starMinPins {
			cm.netW[ni] = cm.starValues(ni, m, d)
			continue
		}
		cm.netW[ni] = cm.cliqueValues(ni, m, d)
	}
	return true
}

// starValues writes net ni's values as a star from slots m and d on: every
// pin is tied to the free center by a spoke of weight w, the net weight.
// Minimizing over the center's position leaves a clique of pair weight
// w/k — the paper's clique exactly. When linearizing, every spoke is
// divided by R, the mean distance of the pins to their centroid (clamped
// below by minDist), which leaves a clique of pair weight w/(k·R): one
// linearization distance per net instead of one per pin pair. It returns
// the weight of that clique, w(k−1)/(2R), so the anchor scales as it would
// under the clique.
func (cm *contribMap) starValues(ni int, m, d int32) float64 {
	s := cm.s
	nl := s.nl
	net := &nl.Nets[ni]
	k := float64(len(net.Pins))
	w := net.Weight
	if s.opts.Linearize {
		centroid := s.centroid(ni)
		var r float64
		for _, p := range net.Pins {
			r += nl.PinPos(p).Dist(centroid)
		}
		w /= max(r/k, minDist)
	}
	// The center's diagonal sums its k spokes. A zero-weight net leaves
	// the center decoupled; a unit diagonal keeps its row nonsingular.
	cc := k * w
	if cc == 0 {
		cc = 1
	}
	cm.setSpring(m, cc)
	cm.setSpring(m+1, w)
	for _, p := range net.Pins {
		// Cost w((x+o)−x_c)² per pin: the offset o shifts d; a fixed
		// pin folds entirely into the center's d.
		if s.VarOf[p.Cell] >= 0 {
			cm.setPull(d, w*p.Offset.X, w*p.Offset.Y)
		} else {
			pos := nl.PinPos(p)
			cm.setPull(d, w*pos.X, w*pos.Y)
		}
		d++
	}
	return w * (k - 1) / 2
}

// cliqueValues writes net ni's values as the paper's clique (§2.1) from
// slots m and d on: k(k−1)/2 edges of weight w/k, each divided by its
// pin-to-pin distance when linearizing. Each pin is cellPos + offset;
// offsets fold into d, and a fixed pin folds into it entirely. It returns
// the summed edge weight (for anchor scaling).
func (cm *contribMap) cliqueValues(ni int, m, d int32) float64 {
	s := cm.s
	nl := s.nl
	net := &nl.Nets[ni]
	k := len(net.Pins)
	if k < 2 {
		return 0
	}
	base := net.Weight / float64(k)
	var total float64
	for i := 0; i < k; i++ {
		pi := net.Pins[i]
		for j := i + 1; j < k; j++ {
			pj := net.Pins[j]
			w := base
			if s.opts.Linearize {
				dist := nl.PinPos(pi).Dist(nl.PinPos(pj))
				if dist < minDist {
					dist = minDist
				}
				w /= dist
			}
			total += w
			cm.setSpring(m, w)
			va, vb := s.VarOf[pi.Cell], s.VarOf[pj.Cell]
			switch {
			case va >= 0 && vb >= 0:
				// Cost w((xa+oa)−(xb+ob))²; the offset difference shifts d.
				cm.setPull(d, w*(pi.Offset.X-pj.Offset.X), w*(pi.Offset.Y-pj.Offset.Y))
			case va >= 0:
				p := nl.PinPos(pj)
				cm.setPull(d, w*(pi.Offset.X-p.X), w*(pi.Offset.Y-p.Y))
			case vb >= 0:
				p := nl.PinPos(pi)
				cm.setPull(d, w*(pj.Offset.X-p.X), w*(pj.Offset.Y-p.Y))
			}
			m++
			d++
		}
	}
	return total
}

// setSpring stores spring value v in slot i.
func (cm *contribMap) setSpring(i int32, v float64) { cm.spring[i] = v }

// setPull stores the d term (x, y) in slot i.
func (cm *contribMap) setPull(i int32, x, y float64) {
	p := cm.pull[2*i : 2*i+2]
	p[0], p[1] = x, y
}

// signs maps a reference's low bit to the sign its slot is added with.
var signs = [2]float64{1, -1}

// sumRows is pass 2 over the variables [lo, hi): their rows of C and
// their entries of Dx and Dy.
func (cm *contribMap) sumRows(lo, hi int) {
	spring, eRef, ePtr, cvals := cm.spring, cm.eRef, cm.ePtr, cm.cvals
	for k := cm.rowPtr[lo]; k < cm.rowPtr[hi]; k++ {
		v := 0.0
		for _, r := range eRef[ePtr[k]:ePtr[k+1]] {
			v += spring[r>>1] * signs[r&1]
		}
		cvals[k] = v
	}
	pull, dRef, dPtr := cm.pull, cm.dRef, cm.dPtr
	dx, dy := cm.s.Dx, cm.s.Dy
	for i := lo; i < hi; i++ {
		x, y := 0.0, 0.0
		for _, r := range dRef[dPtr[i]:dPtr[i+1]] {
			p, sign := pull[r&^1:r&^1+2], signs[r&1]
			x += p[0] * sign
			y += p[1] * sign
		}
		dx[i], dy[i] = x, y
	}
}
