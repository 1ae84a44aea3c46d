package timing

import (
	"math"
	"strings"
	"testing"
)

func TestCriticalPathDetail(t *testing.T) {
	nl := pipeline(t)
	p := DefaultParams()
	rep := NewAnalyzer(nl, p).Analyze()
	det := CriticalPathDetail(nl, p, rep)
	if len(det) != len(rep.CriticalPath) {
		t.Fatalf("detail hops %d != path %d", len(det), len(rep.CriticalPath))
	}
	// Cumulative arrival at the last hop equals the reported max delay.
	last := det[len(det)-1]
	if math.Abs(last.Arrival-rep.MaxDelay) > 1e-15 {
		t.Errorf("arrival %v != MaxDelay %v", last.Arrival, rep.MaxDelay)
	}
	// Every hop but the last has a wire into the next.
	for i, el := range det[:len(det)-1] {
		if el.NetDelay <= 0 {
			t.Errorf("hop %d has no net delay", i)
		}
	}
	if last.NetDelay != 0 {
		t.Error("last hop should have no outgoing net delay")
	}
	// Names resolve.
	if det[1].Name != "a" {
		t.Errorf("hop 1 name %q", det[1].Name)
	}
}

func TestSlackHistogram(t *testing.T) {
	rep := Report{NetSlack: []float64{0, 1e-9, 2e-9, 2e-9, math.Inf(1)}}
	edges, counts := SlackHistogram(rep, 4)
	if len(edges) != 5 || len(counts) != 4 {
		t.Fatalf("shape %d/%d", len(edges), len(counts))
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 4 {
		t.Errorf("histogram counted %d, want 4 (inf excluded)", total)
	}
	if counts[0] != 1 || counts[3] != 2 {
		t.Errorf("counts = %v", counts)
	}
}

func TestSlackHistogramDegenerate(t *testing.T) {
	inf := math.Inf(1)
	if e, c := SlackHistogram(Report{NetSlack: []float64{inf, inf}}, 4); e != nil || c != nil {
		t.Error("all-inf histogram should be empty")
	}
	// All equal slacks.
	_, c := SlackHistogram(Report{NetSlack: []float64{1e-9, 1e-9}}, 4)
	total := 0
	for _, v := range c {
		total += v
	}
	if total != 2 {
		t.Errorf("equal-slack histogram counted %d", total)
	}
}

func TestWriteReport(t *testing.T) {
	nl := pipeline(t)
	p := DefaultParams()
	rep := NewAnalyzer(nl, p).Analyze()
	var sb strings.Builder
	WriteReport(&sb, nl, p, rep)
	out := sb.String()
	for _, want := range []string{"Timing report", "Critical path", "slack histogram", "a", "b", "c"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
