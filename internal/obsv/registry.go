// Package obsv is the placement stack's observability layer: nestable
// phase/span timers with per-run aggregation (legalization's passes),
// registries of counters, gauges and fixed-bucket histograms with a
// Prometheus-text encoder (kserved's serve_* metrics; each owner creates
// its own, there is no process-wide one), and a JSONL run-trace writer
// for place.IterStats records. The placement loop itself reports only
// through IterStats; this package holds no schema of its own.
//
// The package is standard-library only and designed to cost ~zero when
// disabled: every handle type (*Counter, *Gauge, *Histogram, *Spans,
// *TraceWriter) is nil-safe, so instrumented code records unconditionally
// and a nil sink turns each call into an inlineable no-op — no branches on
// configuration flags, no allocations, no time.Now calls on the disabled
// path.
package obsv

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one. Safe on a nil receiver (no-op).
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n < 0 is ignored; counters only go up). Safe on nil.
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float metric that can go up and down. NaN and ±Inf inputs
// are dropped (counted in obsv_bad_samples_total when the gauge came from
// a registry): one poisoned sample must not make /metrics unparseable.
type Gauge struct {
	bits atomic.Uint64
	bad  *Counter // registry's bad-sample counter; nil outside a registry
}

// Set stores v. Non-finite values are dropped. Safe on nil.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		g.bad.Inc()
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments by v (CAS loop). Non-finite increments are dropped.
// Safe on nil.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		g.bad.Inc()
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative histogram (Prometheus
// semantics: counts[i] observations ≤ uppers[i], plus an implicit +Inf).
type Histogram struct {
	mu     sync.Mutex
	uppers []float64 // sorted upper bounds, exclusive of +Inf
	counts []int64   // len(uppers)+1; last is the +Inf overflow
	sum    float64
	total  int64
	bad    *Counter // registry's bad-sample counter; nil outside a registry
}

// Observe records one sample. NaN and ±Inf samples are dropped (counted
// in obsv_bad_samples_total when the histogram came from a registry) so
// one bad measurement cannot poison the sum or the quantile estimates.
// Safe on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		h.bad.Inc()
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.uppers, v) // first upper >= v
	h.counts[i]++
	h.sum += v
	h.total++
	h.mu.Unlock()
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// snapshot returns bounds, cumulative counts, sum and total.
func (h *Histogram) snapshot() ([]float64, []int64, float64, int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := make([]int64, len(h.counts))
	var run int64
	for i, c := range h.counts {
		run += c
		cum[i] = run
	}
	return h.uppers, cum, h.sum, h.total
}

// SecondsBuckets is the default bucket ladder for durations in seconds,
// spanning microsecond kernels to multi-second solves.
var SecondsBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1, 5, 10, 60}

// Registry holds named metrics. The zero value is not usable; construct
// with NewRegistry. A nil *Registry is a valid "disabled" registry: its
// lookup methods return nil handles whose operations are no-ops.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	help       map[string]string // by family name
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		help:       make(map[string]string),
	}
}

// Counter returns (registering on first use) the counter with the given
// full name, which may carry Prometheus labels: `cg_solves_total{precond="ic0"}`.
// Returns nil on a nil registry.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
		r.setHelp(name, help)
	}
	return c
}

// Gauge returns (registering on first use) the named gauge, nil on a nil
// registry.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{bad: r.badSamplesLocked()}
		r.gauges[name] = g
		r.setHelp(name, help)
	}
	return g
}

// Histogram returns (registering on first use) the named histogram with
// the given upper bucket bounds (sorted ascending; +Inf is implicit).
// Returns nil on a nil registry. Bounds are fixed at first registration.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		uppers := append([]float64(nil), buckets...)
		sort.Float64s(uppers)
		h = &Histogram{uppers: uppers, counts: make([]int64, len(uppers)+1), bad: r.badSamplesLocked()}
		r.histograms[name] = h
		r.setHelp(name, help)
	}
	return h
}

// badSamplesName counts NaN/±Inf samples dropped by Gauge.Set/Add and
// Histogram.Observe instead of poisoning the encoded output.
const badSamplesName = "obsv_bad_samples_total"

// badSamplesLocked resolves the shared bad-sample counter; r.mu held.
func (r *Registry) badSamplesLocked() *Counter {
	c, ok := r.counters[badSamplesName]
	if !ok {
		c = &Counter{}
		r.counters[badSamplesName] = c
		r.setHelp(badSamplesName, "non-finite metric samples dropped instead of recorded")
	}
	return c
}

func (r *Registry) setHelp(name, help string) {
	fam, _ := splitName(name)
	if help != "" && r.help[fam] == "" {
		r.help[fam] = help
	}
}

// splitName separates `family{labels}` into its parts; labels is the
// inner `k="v",...` text without braces (empty when unlabeled).
func splitName(name string) (family, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

// joinLabels merges an existing label set with one extra label.
func joinLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return "{" + labels + "," + extra + "}"
}

// WritePrometheus encodes the registry in the Prometheus text exposition
// format, families sorted by name. Safe on nil (writes nothing).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	type line struct{ fam, typ, text string }
	var lines []line
	for name, c := range r.counters {
		fam, _ := splitName(name)
		lines = append(lines, line{fam, "counter", fmt.Sprintf("%s %d\n", name, c.Value())})
	}
	for name, g := range r.gauges {
		fam, _ := splitName(name)
		lines = append(lines, line{fam, "gauge", fmt.Sprintf("%s %g\n", name, g.Value())})
	}
	for name, h := range r.histograms {
		fam, labels := splitName(name)
		// The registry→histogram lock order is fixed, and snapshot is an
		// O(buckets) copy with no I/O, so nothing can deadlock or stall.
		uppers, cum, sum, total := h.snapshot()
		var sb strings.Builder
		for i, up := range uppers {
			fmt.Fprintf(&sb, "%s_bucket%s %d\n", fam, joinLabels(labels, fmt.Sprintf("le=%q", formatFloat(up))), cum[i])
		}
		fmt.Fprintf(&sb, "%s_bucket%s %d\n", fam, joinLabels(labels, `le="+Inf"`), total)
		fmt.Fprintf(&sb, "%s_sum%s %g\n", fam, bracket(labels), sum)
		fmt.Fprintf(&sb, "%s_count%s %d\n", fam, bracket(labels), total)
		lines = append(lines, line{fam, "histogram", sb.String()})
		// Interpolated quantiles ride along as sibling gauge families
		// (fam_p50...), so plain-text consumers get latency percentiles
		// without a query engine; empty histograms encode NaN.
		if total > 0 {
			for _, qp := range quantilePoints {
				v := bucketQuantile(qp.q, uppers, cum, total)
				lines = append(lines, line{fam + qp.suffix, "gauge",
					fmt.Sprintf("%s%s%s %g\n", fam, qp.suffix, bracket(labels), v)})
			}
		}
	}
	sort.Slice(lines, func(i, j int) bool {
		if lines[i].fam != lines[j].fam {
			return lines[i].fam < lines[j].fam
		}
		return lines[i].text < lines[j].text
	})
	lastFam := ""
	for _, l := range lines {
		if l.fam != lastFam {
			if help := r.help[l.fam]; help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", l.fam, help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", l.fam, l.typ); err != nil {
				return err
			}
			lastFam = l.fam
		}
		if _, err := io.WriteString(w, l.text); err != nil {
			return err
		}
	}
	return nil
}

func bracket(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// quantilePoints are the percentiles WritePrometheus surfaces per histogram.
var quantilePoints = []struct {
	q      float64
	suffix string
}{{0.5, "_p50"}, {0.95, "_p95"}, {0.99, "_p99"}}

// ServeHTTP serves the Prometheus text encoding, making a *Registry
// mountable at /metrics on any mux. Safe on nil (serves the empty
// encoding).
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = r.WritePrometheus(w)
}
