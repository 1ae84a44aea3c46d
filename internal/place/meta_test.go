package place

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/netgen"
)

func TestConfigHashStability(t *testing.T) {
	a := Config{K: 0.2, MaxIter: 100}
	b := Config{K: 0.2, MaxIter: 100}
	if a.Hash() != b.Hash() {
		t.Errorf("equal configs hash differently: %s vs %s", a.Hash(), b.Hash())
	}
	if len(a.Hash()) != 16 {
		t.Errorf("hash %q is not 16 hex digits", a.Hash())
	}

	// Every Config field, nested CG fields included, is a knob of the knob
	// table, a hook whose presence is hashed, or listed here as leaving the
	// iteration sequence unchanged. A field in none of the three fails, and
	// every knob and hook must move the hash on its own.
	unhashed := map[string]bool{
		"NoTrace":     true,
		"OnIteration": true,
		"Spans":       true,
		"Metrics":     true,
		// The placer's assembler replaces the factor on every solve.
		"CG.Factor": true,
	}
	hooks := map[string]bool{"BeforeTransform": true, "ExtraDemand": true}
	var probe Config
	knobAt := map[uintptr]string{} // field address in probe → knob key
	for _, k := range knobs {
		knobAt[reflect.ValueOf(k.Ptr(&probe)).Pointer()] = k.Key
	}
	if len(knobAt) != len(knobs) {
		t.Errorf("%d knobs share %d Config fields", len(knobs), len(knobAt))
	}
	base := Config{}.Hash()
	seen := map[string]string{base: "zero Config"}
	walkConfigFields(reflect.TypeOf(Config{}), nil, "", func(name string, index []int) {
		var c Config
		setNonZero(t, name, reflect.ValueOf(&c).Elem().FieldByIndex(index))
		h := c.Hash()
		_, isKnob := knobAt[reflect.ValueOf(&probe).Elem().FieldByIndex(index).Addr().Pointer()]
		switch {
		case unhashed[name]:
			delete(unhashed, name)
			if h != base {
				t.Errorf("%s does not change the iteration sequence but changes the hash", name)
			}
			return
		case hooks[name]:
			delete(hooks, name)
		case !isKnob:
			t.Errorf("Config.%s is neither a knob of the knob table, a hashed hook, nor listed as unhashed", name)
			return
		}
		if prev, dup := seen[h]; dup {
			t.Errorf("setting %s hashes the same as %s: Hash does not cover it", name, prev)
		}
		seen[h] = name
	})
	for name := range unhashed {
		t.Errorf("unhashed list names %s, which is not a Config field", name)
	}
	for name := range hooks {
		t.Errorf("hook list names %s, which is not a Config field", name)
	}
}

// TestKnobFlags sets every knob through its kplace flag on a fresh
// FlagSet and gets the Config that sets the field directly; a retired
// knob's flag is unknown.
func TestKnobFlags(t *testing.T) {
	flags, keys := map[string]bool{}, map[string]bool{}
	for _, k := range Knobs() {
		if flags[k.Flag] || keys[k.Key] {
			t.Fatalf("knob %s/%s: duplicate flag or key", k.Flag, k.Key)
		}
		flags[k.Flag], keys[k.Key] = true, true

		var want Config
		v := reflect.ValueOf(k.Ptr(&want)).Elem()
		setNonZero(t, k.Key, v)
		var got Config
		fs := flag.NewFlagSet("kplace", flag.ContinueOnError)
		got.RegisterFlags(fs)
		arg := fmt.Sprintf("-%s=%v", k.Flag, v)
		if err := fs.Parse([]string{arg}); err != nil {
			t.Fatalf("%s: %v", arg, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: config %+v, want %+v", arg, got, want)
		}
	}
	for _, arg := range []string{"-precond=ic0", "-field=rfft", "-netmodel=clique", "-cold"} {
		var c Config
		fs := flag.NewFlagSet("kplace", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		c.RegisterFlags(fs)
		if err := fs.Parse([]string{arg}); err == nil {
			t.Errorf("%s parsed, want a flag error", arg)
		}
	}
}

// walkConfigFields calls visit for every leaf field of the struct type st,
// descending into nested structs, with its dotted name and field index.
func walkConfigFields(st reflect.Type, index []int, prefix string, visit func(name string, index []int)) {
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		idx := append(append([]int(nil), index...), i)
		if f.Type.Kind() == reflect.Struct {
			walkConfigFields(f.Type, idx, prefix+f.Name+".", visit)
			continue
		}
		visit(prefix+f.Name, idx)
	}
}

// setNonZero gives v a value other than its zero value.
func setNonZero(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int:
		v.SetInt(1)
	case reflect.Float64:
		v.SetFloat(0.5)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Func:
		ft := v.Type()
		v.Set(reflect.MakeFunc(ft, func([]reflect.Value) []reflect.Value {
			out := make([]reflect.Value, ft.NumOut())
			for i := range out {
				out[i] = reflect.Zero(ft.Out(i))
			}
			return out
		}))
	default:
		t.Fatalf("Config.%s has kind %s; teach setNonZero to set it", name, v.Kind())
	}
}

func TestNewRunMeta(t *testing.T) {
	nl := netgen.Generate(netgen.Config{Name: "meta", Cells: 120, Nets: 150, Rows: 6, Seed: 7})
	start := time.Unix(1700000000, 0)
	m := NewRunMeta(nl, Config{}, 7, start)
	if m.Type != "meta" {
		t.Errorf("type %q", m.Type)
	}
	if m.Design != "meta" || m.Cells != len(nl.Cells) || m.Nets != len(nl.Nets) || m.Movable != nl.NumMovable() {
		t.Errorf("design identity: %+v", m)
	}
	if m.Seed != 7 || !m.Start.Equal(start) {
		t.Errorf("seed/start: %+v", m)
	}
	// Defaults are resolved before recording: the zero config runs K=0.2.
	if m.K != 0.2 || m.MaxIter != 300 {
		t.Errorf("unresolved defaults: K=%g MaxIter=%d", m.K, m.MaxIter)
	}
	if m.ConfigHash == "" {
		t.Error("empty config hash")
	}
	// The recorded hash equals the resolved config's hash, so an explicit
	// K=0.2 and the default produce identical metadata.
	explicit := NewRunMeta(nl, Config{K: 0.2, MaxIter: 300}, 7, start)
	if explicit.ConfigHash != m.ConfigHash {
		t.Errorf("default and explicit-default configs hash differently")
	}
}

// TestGapProxyInStats: every iteration reports a finite positive gap
// proxy, and the run's final value is consistent with its stop reason —
// a criterion stop means the proxy reached ≤ 1.
func TestGapProxyInStats(t *testing.T) {
	nl := netgen.Generate(netgen.Config{Name: "gap", Cells: 200, Nets: 260, Rows: 6, Seed: 3})
	var last IterStats
	seen := 0
	cfg := Config{MaxIter: 200, OnIteration: func(s IterStats) {
		seen++
		if math.IsNaN(s.GapProxy) || math.IsInf(s.GapProxy, 0) || s.GapProxy < 0 {
			t.Fatalf("iteration %d: gap proxy %v", s.Iter, s.GapProxy)
		}
		last = s
	}}
	p := New(nl, cfg)
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if seen == 0 {
		t.Fatal("no iterations observed")
	}
	if res.StopReason == StopCriterion && last.GapProxy > 1 {
		t.Errorf("criterion stop with gap proxy %g > 1", last.GapProxy)
	}
	// The proxy is the empty-square measure in units of the stopping
	// threshold; recompute it to pin the definition.
	want := last.EmptySquare / (4 * nl.AvgCellArea())
	if math.Abs(last.GapProxy-want) > 1e-9*math.Max(1, want) {
		t.Errorf("gap proxy %g, want EmptySquare/(4·avg) = %g", last.GapProxy, want)
	}
}
