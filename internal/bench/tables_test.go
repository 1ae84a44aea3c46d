package bench

import (
	"math"
	"strings"
	"testing"
)

func sampleT1() []Table1Row {
	return []Table1Row{
		{
			Circuit: "alpha", Cells: 100, Nets: 120, Rows: 8,
			TWHigh: EngineRun{WL: 1.0, CPU: 10},
			TWMed:  EngineRun{WL: 1.1, CPU: 4},
			Gord:   EngineRun{WL: 1.2, CPU: 2},
			Ours:   EngineRun{WL: 0.9, CPU: 3},
		},
		{
			Circuit: "beta", Cells: 200, Nets: 260, Rows: 12,
			TWHigh: EngineRun{WL: 2.0, CPU: 20},
			TWMed:  EngineRun{WL: 2.4, CPU: 8},
			Gord:   EngineRun{WL: 2.2, CPU: 4},
			Ours:   EngineRun{WL: 2.0, CPU: 6},
		},
	}
}

func TestTable2FromMath(t *testing.T) {
	t2 := Table2From(sampleT1())
	if len(t2) != 2 {
		t.Fatalf("rows = %d", len(t2))
	}
	// alpha: ours 0.9 vs TW-high 1.0 -> 10% improvement; CPU 3/10 = 0.3.
	if math.Abs(t2[0].ImpTWHigh-10) > 1e-9 {
		t.Errorf("ImpTWHigh = %v", t2[0].ImpTWHigh)
	}
	if math.Abs(t2[0].RelTWHigh-0.3) > 1e-9 {
		t.Errorf("RelTWHigh = %v", t2[0].RelTWHigh)
	}
	// beta vs gordian: (2.2-2.0)/2.2 = 9.09%.
	if math.Abs(t2[1].ImpGord-100*0.2/2.2) > 1e-9 {
		t.Errorf("ImpGord = %v", t2[1].ImpGord)
	}
}

func TestTable2AverageAndZeroGuards(t *testing.T) {
	t2 := Table2From(sampleT1())
	avg := Table2Average(t2)
	if avg.Circuit != "average" {
		t.Error("missing average label")
	}
	want := (t2[0].ImpTWHigh + t2[1].ImpTWHigh) / 2
	if math.Abs(avg.ImpTWHigh-want) > 1e-9 {
		t.Errorf("avg ImpTWHigh = %v, want %v", avg.ImpTWHigh, want)
	}
	// Empty input.
	if z := Table2Average(nil); z.ImpGord != 0 {
		t.Error("empty average not zero")
	}
	// Zero-valued engine runs do not divide by zero.
	z := Table2From([]Table1Row{{Circuit: "zero"}})
	if z[0].ImpTWHigh != 0 || z[0].RelTWHigh != 0 {
		t.Error("zero guard failed")
	}
}

func sampleT3() []Table3Row {
	return []Table3Row{{
		Circuit:    "gamma",
		LowerBound: 10,
		TW:         TimingRun{Without: 30, With: 22, CPU: 8},
		Speed:      TimingRun{Without: 34, With: 30, CPU: 2},
		Ours:       TimingRun{Without: 28, With: 18, CPU: 4},
	}}
}

func TestTable4FromMath(t *testing.T) {
	t4 := Table4From(sampleT3())
	if len(t4) != 1 {
		t.Fatal("missing row")
	}
	r := t4[0]
	// TW: (30-22)/(30-10) = 40%.
	if math.Abs(r.ExpTW-40) > 1e-9 {
		t.Errorf("ExpTW = %v", r.ExpTW)
	}
	// Ours: (28-18)/(28-10) = 55.55%.
	if math.Abs(r.ExpOurs-100*10.0/18.0) > 1e-9 {
		t.Errorf("ExpOurs = %v", r.ExpOurs)
	}
	// Rel CPU: theirs/ours.
	if math.Abs(r.RelTW-2) > 1e-9 || math.Abs(r.RelSpeed-0.5) > 1e-9 {
		t.Errorf("rel cpu = %v %v", r.RelTW, r.RelSpeed)
	}
}

func TestTable4ZeroPotential(t *testing.T) {
	rows := []Table3Row{{Circuit: "flat", LowerBound: 30,
		Ours: TimingRun{Without: 30, With: 30, CPU: 1}}}
	t4 := Table4From(rows)
	if t4[0].ExpOurs != 0 {
		t.Errorf("zero potential exploitation = %v", t4[0].ExpOurs)
	}
}

func TestPrinters(t *testing.T) {
	var sb strings.Builder
	PrintTable1(&sb, sampleT1())
	if !strings.Contains(sb.String(), "alpha") || !strings.Contains(sb.String(), "Table 1") {
		t.Error("Table 1 output malformed")
	}
	sb.Reset()
	PrintTable2(&sb, Table2From(sampleT1()))
	if !strings.Contains(sb.String(), "average") {
		t.Error("Table 2 missing average row")
	}
	sb.Reset()
	PrintTable3(&sb, sampleT3())
	if !strings.Contains(sb.String(), "gamma") {
		t.Error("Table 3 output malformed")
	}
	sb.Reset()
	PrintTable4(&sb, Table4From(sampleT3()))
	if !strings.Contains(sb.String(), "%") {
		t.Error("Table 4 output malformed")
	}
	sb.Reset()
	PrintFast(&sb, []FastRow{{Circuit: "x", StdWL: 1, FastWL: 1.06, WLIncrease: 6, SpeedUp: 3}})
	if !strings.Contains(sb.String(), "6.0") {
		t.Error("E5 output malformed")
	}
}

func TestOptionsFilter(t *testing.T) {
	o := Options{Circuits: []string{"fract"}}
	if !o.wants("fract") || o.wants("biomed") {
		t.Error("filter broken")
	}
	var all Options
	if !all.wants("anything") {
		t.Error("empty filter should accept all")
	}
}

func TestRunTradeoffUnknownCircuit(t *testing.T) {
	if _, err := RunTradeoff(Options{Scale: 0.1}, "ghost", 0.3); err == nil {
		t.Error("expected error for unknown circuit")
	}
}

func TestRunAblationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("several placement runs")
	}
	rows, err := RunAblation(Options{Scale: 0.05}, "fract")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // default, no linearization, coarse and fine grid
		t.Fatalf("ablation rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if r.WL <= 0 {
			t.Errorf("variant %q produced no wire length", r.Variant)
		}
	}
	var sb strings.Builder
	PrintAblation(&sb, "fract", rows)
	if !strings.Contains(sb.String(), "default") {
		t.Error("ablation output missing default row")
	}
	if _, err := RunAblation(Options{Scale: 0.05}, "ghost"); err == nil {
		t.Error("unknown circuit accepted")
	}
}

func TestRunScalingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("several placement runs")
	}
	rows := RunScaling(Options{}, []int{60, 120})
	if len(rows) != 2 {
		t.Fatalf("scaling rows = %d", len(rows))
	}
	if rows[1].GlobalCPU <= 0 || rows[1].WLPerCell <= 0 {
		t.Errorf("degenerate scaling row %+v", rows[1])
	}
	var sb strings.Builder
	PrintScaling(&sb, rows)
	if !strings.Contains(sb.String(), "growth") {
		t.Error("scaling output malformed")
	}
}

func TestRunFastVsStandardSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("two placement runs")
	}
	rows := RunFastVsStandard(Options{Scale: 0.05, Circuits: []string{"fract"}})
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].StdWL <= 0 || rows[0].FastWL <= 0 {
		t.Errorf("degenerate E5 row %+v", rows[0])
	}
}

func TestRunTradeoffSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("meet-timing run")
	}
	res, err := RunTradeoff(Options{Scale: 0.05}, "fract", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) == 0 || res.Unopt <= 0 {
		t.Fatalf("degenerate tradeoff %+v", res)
	}
	var sb strings.Builder
	PrintTradeoff(&sb, res)
	if !strings.Contains(sb.String(), "tradeoff") {
		t.Error("tradeoff output malformed")
	}
}
