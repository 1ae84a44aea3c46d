package obsv

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety holds every handle type to the nil-handle contract: each
// exported method on a nil receiver is a no-op. It walks each type's
// method set, so a method added without a nil guard fails here too. Every
// argument is its zero value, except writers and requests, which get a
// buffer or httptest values; every call must not panic, must write
// nothing, and must return only zero values (a nil error included).
func TestNilSafety(t *testing.T) {
	writerT := reflect.TypeOf((*io.Writer)(nil)).Elem()
	respT := reflect.TypeOf((*http.ResponseWriter)(nil)).Elem()
	reqT := reflect.TypeOf((*http.Request)(nil))
	for _, handle := range []any{
		(*Registry)(nil), (*Counter)(nil), (*Gauge)(nil),
		(*Histogram)(nil), (*Spans)(nil), (*TraceWriter)(nil),
	} {
		v := reflect.ValueOf(handle)
		typ := v.Type()
		if typ.NumMethod() == 0 {
			t.Fatalf("%v has no exported methods", typ)
		}
		for i := 0; i < typ.NumMethod(); i++ {
			name := typ.Elem().Name() + "." + typ.Method(i).Name
			m := v.Method(i)
			var buf bytes.Buffer
			rec := httptest.NewRecorder()
			args := make([]reflect.Value, m.Type().NumIn())
			for k := range args {
				switch in := m.Type().In(k); in {
				case respT:
					args[k] = reflect.ValueOf(rec)
				case reqT:
					args[k] = reflect.ValueOf(httptest.NewRequest(http.MethodGet, "/metrics", nil))
				case writerT:
					args[k] = reflect.ValueOf(&buf)
				default:
					args[k] = reflect.Zero(in)
				}
			}
			t.Run(name, func(t *testing.T) {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("panics on a nil receiver: %v", p)
					}
				}()
				for k, out := range m.Call(args) {
					if !out.IsZero() {
						t.Errorf("result %d = %v on a nil receiver, want the zero value", k, out)
					}
				}
				if buf.Len() != 0 || rec.Body.Len() != 0 {
					t.Errorf("wrote %q%q on a nil receiver, want nothing", buf.String(), rec.Body.String())
				}
			})
		}
	}

	// The zero Span a nil *Spans hands out is inert too.
	var s *Spans
	if d := s.Start("phase").End(); d != 0 {
		t.Fatalf("nil spans recorded %v", d)
	}
}

func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "ops")
	g := r.Gauge("level", "level")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Fatalf("gauge = %g, want 8000", g.Value())
	}
	// Re-lookup returns the same handle.
	if r.Counter("ops_total", "") != c {
		t.Fatal("counter lookup not idempotent")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if got, want := h.Sum(), 5.555; got != want {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	uppers, cum, _, total := h.snapshot()
	wantCum := []int64{1, 2, 3, 4}
	for i := range uppers {
		if cum[i] != wantCum[i] {
			t.Fatalf("cumulative[%d] = %d, want %d", i, cum[i], wantCum[i])
		}
	}
	if total != 4 {
		t.Fatalf("total = %d, want 4", total)
	}
}

func TestPrometheusEncoding(t *testing.T) {
	r := NewRegistry()
	r.Counter(`cg_solves_total{precond="jacobi"}`, "CG solves").Add(3)
	r.Counter(`cg_solves_total{precond="ic0"}`, "CG solves").Add(2)
	r.Gauge("hpwl", "wire length").Set(123.5)
	h := r.Histogram("step_seconds", "step time", []float64{0.1, 1, 10, 60})
	h.Observe(0.05)
	h.Observe(2)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE cg_solves_total counter",
		"# HELP cg_solves_total CG solves",
		`cg_solves_total{precond="jacobi"} 3`,
		`cg_solves_total{precond="ic0"} 2`,
		"# TYPE hpwl gauge",
		"hpwl 123.5",
		"# TYPE step_seconds histogram",
		`step_seconds_bucket{le="0.1"} 1`,
		`step_seconds_bucket{le="1"} 1`,
		// Integer bounds must keep their digits (10, not "1").
		`step_seconds_bucket{le="10"} 2`,
		`step_seconds_bucket{le="60"} 2`,
		`step_seconds_bucket{le="+Inf"} 2`,
		"step_seconds_sum 2.05",
		"step_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Each family's TYPE line appears exactly once.
	if n := strings.Count(out, "# TYPE cg_solves_total"); n != 1 {
		t.Errorf("TYPE line for labeled family appears %d times", n)
	}
}

func TestSpansAggregation(t *testing.T) {
	s := NewSpans()
	s.Record("solve", 10*time.Millisecond)
	s.Record("solve", 30*time.Millisecond)
	s.Record("gather", 5*time.Millisecond)

	st := s.Get("solve")
	if st.Count != 2 || st.Total != 40*time.Millisecond {
		t.Fatalf("solve aggregate = %+v", st)
	}
	if st.Min != 10*time.Millisecond || st.Max != 30*time.Millisecond {
		t.Fatalf("solve min/max = %v/%v", st.Min, st.Max)
	}
	if st.Mean() != 20*time.Millisecond {
		t.Fatalf("solve mean = %v", st.Mean())
	}

	sp := s.Start("timed")
	outer := s.Start("outer")
	inner := s.Start("outer/inner") // spans nest freely
	inner.End()
	outer.End()
	if d := sp.End(); d <= 0 {
		t.Fatalf("span duration %v", d)
	}
	snap := s.Snapshot()
	for _, name := range []string{"solve", "gather", "timed", "outer", "outer/inner"} {
		if snap[name].Count == 0 {
			t.Errorf("snapshot missing %q", name)
		}
	}

	var buf bytes.Buffer
	s.WriteTable(&buf)
	if !strings.Contains(buf.String(), "solve") || !strings.Contains(buf.String(), "phase") {
		t.Fatalf("table output:\n%s", buf.String())
	}
}

func TestTraceWriterJSONL(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	type rec struct {
		Iter int     `json:"iter"`
		HPWL float64 `json:"hpwl"`
	}
	for i := 0; i < 3; i++ {
		if err := tw.Write(rec{Iter: i, HPWL: float64(100 - i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	n := 0
	for sc.Scan() {
		var r rec
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line %d is not JSON: %v (%q)", n, err, sc.Text())
		}
		if r.Iter != n {
			t.Fatalf("line %d has iter %d", n, r.Iter)
		}
		n++
	}
	if n != 3 {
		t.Fatalf("got %d JSONL lines, want 3", n)
	}
}
