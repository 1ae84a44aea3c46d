package obsv

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// quantile evaluates bucketQuantile on h's current buckets, the estimate
// WritePrometheus encodes as the _p50/_p95/_p99 gauges.
func quantile(h *Histogram, q float64) float64 {
	uppers, cum, _, total := h.snapshot()
	return bucketQuantile(q, uppers, cum, total)
}

// TestQuantileInterpolation pins the estimator on a hand-checkable
// distribution: buckets [1 2 4], one sample per bucket edge region.
func TestQuantileInterpolation(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_test", "quantile fixture", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 3, 3.5} {
		h.Observe(v)
	}
	// cum = [1, 2, 4], total 4.
	cases := []struct{ q, want float64 }{
		{0.25, 1}, // rank 1 lands exactly on the first bucket's count → its upper bound
		{0.5, 2},  // rank 2 fills the (1,2] bucket → 2
		{0.75, 3}, // rank 3: one of two samples into (2,4] → 2 + 2*(1/2)
		{1.0, 4},  // everything observed ≤ 4
		{0, 0},    // rank 0 → the first bucket's zero floor
		{-0.5, 0}, // clamped to q=0
		{1.5, 4},  // clamped to q=1
	}
	for _, c := range cases {
		if got := quantile(h, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
}

// TestQuantileFirstBucketInterpolatesFromZero checks the Prometheus
// convention: the first finite bucket's lower bound is 0.
func TestQuantileFirstBucketInterpolatesFromZero(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_first", "fixture", []float64{10})
	for i := 0; i < 4; i++ {
		h.Observe(1)
	}
	if got := quantile(h, 0.5); got != 5 {
		t.Errorf("quantile(0.5) = %g, want 5 (linear within [0,10])", got)
	}
}

// TestQuantileOverflowClampsToLastFinite: samples beyond the bucket
// ladder cannot be located, so quantiles in the +Inf bucket report the
// largest finite bound.
func TestQuantileOverflowClampsToLastFinite(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_inf", "fixture", []float64{1, 4})
	h.Observe(100)
	h.Observe(200)
	if got := quantile(h, 0.99); got != 4 {
		t.Errorf("quantile(0.99) = %g, want clamp to 4", got)
	}
}

// TestQuantileEmptyAndNil: an empty histogram, a NaN q and a nil bucket
// ladder have no estimate.
func TestQuantileEmptyAndNil(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_empty", "fixture", []float64{1})
	if got := quantile(h, 0.5); !math.IsNaN(got) {
		t.Errorf("empty histogram quantile = %g, want NaN", got)
	}
	h.Observe(0.5)
	if got := quantile(h, math.NaN()); !math.IsNaN(got) {
		t.Errorf("quantile(NaN) = %g, want NaN", got)
	}
	if got := bucketQuantile(0.5, nil, []int64{3}, 3); !math.IsNaN(got) {
		t.Errorf("quantile without finite buckets = %g, want NaN", got)
	}
}

// TestEncoderQuantileGolden pins the quantile surfacing in the Prometheus
// text: sibling _p50/_p95/_p99 gauge families.
func TestEncoderQuantileGolden(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "fixture latency", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 3, 3.5} {
		h.Observe(v)
	}

	var prom bytes.Buffer
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	text := prom.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		"# TYPE lat_seconds_p50 gauge",
		"lat_seconds_p50 2\n",
		"lat_seconds_p95 3.8\n", // rank 3.8 → 2 + 2*(1.8/2)
		"lat_seconds_p99 3.96\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus encoding missing %q:\n%s", want, text)
		}
	}
}

// TestEmptyHistogramEncodesWithoutQuantiles: an empty histogram must not
// emit quantile lines or NaN into the encoding.
func TestEmptyHistogramEncodesWithoutQuantiles(t *testing.T) {
	r := NewRegistry()
	r.Histogram("empty_seconds", "fixture", []float64{1})

	var prom bytes.Buffer
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(prom.String(), "empty_seconds_p50") {
		t.Errorf("empty histogram emitted quantile lines:\n%s", prom.String())
	}
	if strings.Contains(prom.String(), "NaN") {
		t.Errorf("Prometheus encoding contains NaN:\n%s", prom.String())
	}
}

// TestBadSampleGuards: NaN/±Inf samples are dropped and counted, never
// recorded.
func TestBadSampleGuards(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g", "fixture")
	h := r.Histogram("h_seconds", "fixture", []float64{1})

	g.Set(3)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		g.Set(v)
		g.Add(v)
		h.Observe(v)
	}
	if got := g.Value(); got != 3 {
		t.Errorf("gauge poisoned: %g, want 3", got)
	}
	h.Observe(0.5)
	_, _, sum, total := h.snapshot()
	if total != 1 || sum != 0.5 {
		t.Errorf("histogram poisoned: total %d sum %g, want 1 / 0.5", total, sum)
	}
	bad := r.Counter(badSamplesName, "")
	if got := bad.Value(); got != 9 {
		t.Errorf("obsv_bad_samples_total = %d, want 9 (3 Set + 3 Add + 3 Observe)", got)
	}

	// Nil receivers stay inert.
	var nilG *Gauge
	var nilHist *Histogram
	nilG.Set(math.NaN())
	nilHist.Observe(math.Inf(1))
}
