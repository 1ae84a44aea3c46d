package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTrace drops a JSONL trace into a temp file and returns its path.
func writeTrace(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const metaLine = `{"type":"meta","design":"d","cells":10,"config_hash":"abc","phases":["weight","gather","step"]}`

// iterLine is one well-formed iteration record matching metaLine's phases.
const iterLine = `{"iter":0,"hpwl":12.5,"t_weight_ns":1,"t_gather_ns":2,"t_step_ns":10}`

func TestCheckTrace(t *testing.T) {
	cases := []struct {
		name    string
		lines   []string
		wantErr string // substring; "" means the trace must validate
	}{
		{
			name:  "valid",
			lines: []string{metaLine, iterLine, `{"iter":1,"hpwl":11.0,"t_weight_ns":1,"t_gather_ns":2,"t_step_ns":9}`},
		},
		{
			name:    "unknown phase key",
			lines:   []string{metaLine, `{"iter":0,"hpwl":12.5,"t_weight_ns":1,"t_gather_ns":2,"t_step_ns":10,"t_bogus_ns":3}`},
			wantErr: `unknown phase key "t_bogus_ns"`,
		},
		{
			name:    "missing phase from meta",
			lines:   []string{metaLine, `{"iter":0,"hpwl":12.5,"t_weight_ns":1,"t_step_ns":10}`},
			wantErr: `missing phase "gather"`,
		},
		{
			name:    "meta declares unknown phase",
			lines:   []string{`{"type":"meta","design":"d","cells":10,"config_hash":"abc","phases":["teleport"]}`, iterLine},
			wantErr: `unknown phase "teleport"`,
		},
		{
			name: "legacy meta without phases skips the presence check",
			lines: []string{
				`{"type":"meta","design":"d","cells":10,"config_hash":"abc"}`,
				`{"iter":0,"hpwl":12.5,"t_step_ns":10}`,
			},
		},
		{
			name:    "iteration before meta",
			lines:   []string{iterLine},
			wantErr: "before any meta header",
		},
		{
			name:    "non-monotone iteration",
			lines:   []string{metaLine, strings.Replace(iterLine, `"iter":0`, `"iter":5`, 1), strings.Replace(iterLine, `"iter":0`, `"iter":3`, 1)},
			wantErr: "not monotone",
		},
		{
			name:    "bad hpwl",
			lines:   []string{metaLine, `{"iter":0,"hpwl":-1,"t_weight_ns":1,"t_gather_ns":2,"t_step_ns":10}`},
			wantErr: "bad hpwl",
		},
		{
			name:    "pair time exceeds step time",
			lines:   []string{`{"type":"meta","design":"d","cells":10,"config_hash":"abc"}`, `{"iter":0,"hpwl":12.5,"t_step_ns":10,"t_solve_pair_ns":20}`},
			wantErr: "t_solve_pair_ns 20 outside",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkTrace(writeTrace(t, tc.lines...))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("checkTrace() = %v, want ok", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("checkTrace() passed, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("checkTrace() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}
