package place

import (
	"encoding/json"
	"flag"
	"fmt"
	"reflect"
)

// Knob is one user-settable algorithm parameter of Config: its POST /jobs
// JSON key, its kplace flag name and usage text, and the Config field it
// sets. The knob table is the only place a knob is named: kplace registers
// its flags from it (RegisterFlags), serve decodes request bodies through
// it (SetKnob, KnobValues), and Config.Hash digests it.
type Knob struct {
	Key, Flag, Usage string
	field            func(*Config) any
}

// Ptr returns a pointer to the knob's field in c: a *float64, *int or
// *bool.
func (k Knob) Ptr(c *Config) any { return k.field(c) }

func (k Knob) value(c *Config) reflect.Value { return reflect.ValueOf(k.field(c)).Elem() }

var knobs = []Knob{
	{"k", "k", "Kraftwerk speed parameter K (0 = default 0.2 standard mode; 1.0 fast)", func(c *Config) any { return &c.K }},
	{"max_iter", "maxiter", "iteration cap (0 = default)", func(c *Config) any { return &c.MaxIter }},
	{"keep_placement", "keep", "start from the input netlist's positions instead of gathering at the region center", func(c *Config) any { return &c.KeepPlacement }},
	{"cg_tol", "cgtol", "CG relative residual tolerance (0 = default 1e-6)", func(c *Config) any { return &c.CG.Tol }},
	{"cg_max_iter", "cgmaxiter", "CG iteration cap per solve (0 = default)", func(c *Config) any { return &c.CG.MaxIter }},
}

// Knobs returns the knob table in declaration order.
func Knobs() []Knob { return append([]Knob(nil), knobs...) }

// RegisterFlags defines one flag per knob on fs, writing into c and
// defaulting to c's current value.
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	for _, k := range knobs {
		switch p := k.field(c).(type) {
		case *float64:
			fs.Float64Var(p, k.Flag, *p, k.Usage)
		case *int:
			fs.IntVar(p, k.Flag, *p, k.Usage)
		case *bool:
			fs.BoolVar(p, k.Flag, *p, k.Usage)
		}
	}
}

// SetKnob sets the knob with JSON key key from its JSON value. An unknown
// key, or a value of the wrong type, is an error naming the key.
func (c *Config) SetKnob(key string, raw json.RawMessage) error {
	for _, k := range knobs {
		if k.Key != key {
			continue
		}
		if err := json.Unmarshal(raw, k.field(c)); err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		return nil
	}
	return fmt.Errorf("unknown field %q", key)
}

// KnobValues returns c's non-zero knobs by JSON key: the body SetKnob
// reads back into an equal Config.
func (c *Config) KnobValues() map[string]any {
	m := make(map[string]any)
	for _, k := range knobs {
		if v := k.value(c); !v.IsZero() {
			m[k.Key] = v.Interface()
		}
	}
	return m
}
