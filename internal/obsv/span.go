package obsv

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// PhaseStat aggregates all spans recorded under one name.
type PhaseStat struct {
	Count int64
	Total time.Duration
	Min   time.Duration
	Max   time.Duration
}

// Mean returns the average span duration (0 when empty).
func (p PhaseStat) Mean() time.Duration {
	if p.Count == 0 {
		return 0
	}
	return p.Total / time.Duration(p.Count)
}

// Spans aggregates named phase timings for one run. Spans nest freely —
// a span is just a Start/End pair, and hierarchical names
// ("legalize/detailed") are the convention for nesting. All methods are
// safe for concurrent use and on a nil receiver: a nil *Spans records
// nothing and Start performs no time.Now call.
type Spans struct {
	mu sync.Mutex
	m  map[string]*PhaseStat
}

// NewSpans creates an empty span recorder.
func NewSpans() *Spans { return &Spans{m: make(map[string]*PhaseStat)} }

// Span is one in-flight timed section.
type Span struct {
	s    *Spans
	name string
	t0   time.Time
}

// Start opens a span; call End on the returned value to record it.
// On a nil receiver it returns an inert Span without reading the clock.
func (s *Spans) Start(name string) Span {
	if s == nil {
		return Span{}
	}
	return Span{s: s, name: name, t0: time.Now()}
}

// End closes the span, records its duration, and returns it. No-op on a
// span obtained from a nil *Spans.
func (sp Span) End() time.Duration {
	if sp.s == nil {
		return 0
	}
	d := time.Since(sp.t0)
	sp.s.Record(sp.name, d)
	return d
}

// Record folds an externally measured duration into the aggregation.
// Safe on nil.
func (s *Spans) Record(name string, d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	st, ok := s.m[name]
	if !ok {
		st = &PhaseStat{Min: d}
		s.m[name] = st
	}
	st.Count++
	st.Total += d
	if d < st.Min {
		st.Min = d
	}
	if d > st.Max {
		st.Max = d
	}
	s.mu.Unlock()
}

// Get returns the aggregate for one phase name (zero when absent or nil).
func (s *Spans) Get(name string) PhaseStat {
	if s == nil {
		return PhaseStat{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.m[name]; ok {
		return *st
	}
	return PhaseStat{}
}

// Snapshot returns a copy of all phase aggregates (nil map when empty).
func (s *Spans) Snapshot() map[string]PhaseStat {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]PhaseStat, len(s.m))
	for name, st := range s.m {
		out[name] = *st
	}
	return out
}

// WriteTable renders the aggregates as an aligned text table sorted by
// descending total time. Safe on nil (writes nothing).
func (s *Spans) WriteTable(w io.Writer) {
	if s == nil {
		return
	}
	snap := s.Snapshot()
	if len(snap) == 0 {
		return
	}
	type row struct {
		name string
		st   PhaseStat
	}
	rows := make([]row, 0, len(snap))
	width := len("phase")
	for name, st := range snap {
		rows = append(rows, row{name, st})
		if len(name) > width {
			width = len(name)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].st.Total != rows[j].st.Total {
			return rows[i].st.Total > rows[j].st.Total
		}
		return rows[i].name < rows[j].name
	})
	fmt.Fprintf(w, "%-*s %8s %12s %12s %12s %12s\n", width, "phase", "count", "total", "mean", "min", "max")
	for _, r := range rows {
		fmt.Fprintf(w, "%-*s %8d %12s %12s %12s %12s\n", width, r.name,
			r.st.Count, round(r.st.Total), round(r.st.Mean()), round(r.st.Min), round(r.st.Max))
	}
}

// round trims durations to a readable precision for tables.
func round(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(time.Microsecond)
	default:
		return d.Round(time.Nanosecond)
	}
}
