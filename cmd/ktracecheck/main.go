// Command ktracecheck validates JSONL run traces so CI can assert they
// are well-formed, not merely present.
//
//	ktracecheck run.jsonl ...
//
// A run trace must open with a self-describing meta record (non-empty
// config hash, positive cell count) and every iteration record must carry
// a finite positive HPWL, a positive step time, a step-control damping in
// (0, 1] when it carries one, and a monotonically increasing iteration
// number — resets to 0 mark a new run within the
// file (timing-driven placement restarts), and a new meta record starts a
// fresh group outright. Phase timing keys (t_<phase>_ns) must come from
// the known phase schema, and when the meta record declares its phase
// list, every declared phase must appear on every iteration record, and
// the phases must account for the steps: over all records of such
// groups, the step time no phase covers (Σ t_step − Σ phases) may be at
// most 5 % of Σ t_step.
//
// Exit status: 0 valid, 1 validation failure, 2 usage or read error.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/place"
)

func main() {
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: ktracecheck file...")
		os.Exit(2)
	}
	bad := false
	for _, path := range flag.Args() {
		if err := checkTrace(path); err != nil {
			fmt.Fprintf(os.Stderr, "ktracecheck: %s: %v\n", path, err)
			bad = true
			continue
		}
		fmt.Printf("%s: ok\n", path)
	}
	if bad {
		os.Exit(1)
	}
}

// traceRec is the union of the fields ktracecheck inspects on a JSONL
// line; pointers distinguish "absent" from zero.
type traceRec struct {
	Type       string   `json:"type"`
	ConfigHash string   `json:"config_hash"`
	Cells      int      `json:"cells"`
	Phases     []string `json:"phases"`
	Iter       *int     `json:"iter"`
	HPWL       *float64 `json:"hpwl"`
	StepNS     *int64   `json:"t_step_ns"`
	PairNS     *int64   `json:"t_solve_pair_ns"`
	Damping    *float64 `json:"damping"`
}

// knownPhaseKeys is the trace-key allowlist: the t_<phase>_ns keys an
// iteration record may carry, one per place.PhaseKeys entry.
var knownPhaseKeys = func() map[string]bool {
	keys := make(map[string]bool)
	for _, p := range place.PhaseKeys() {
		keys[phaseKey(p)] = true
	}
	return keys
}()

// phaseKey maps a meta-record phase name ("solve-x") to its trace key
// ("t_solve_x_ns").
func phaseKey(phase string) string {
	return "t_" + strings.ReplaceAll(phase, "-", "_") + "_ns"
}

func checkTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ktracecheck: %v\n", err)
		os.Exit(2)
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	iters := 0
	metas := 0
	lastIter := -1
	var metaPhases []string // current group's declared phases (nil: legacy meta)
	// stepNS and unaccountedNS sum t_step and the part of it no phase
	// covers over the records of phase-declaring groups.
	var stepNS, unaccountedNS int64
	for sc.Scan() {
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		line++
		var r traceRec
		if err := json.Unmarshal(raw, &r); err != nil {
			return fmt.Errorf("line %d: not JSON: %v", line, err)
		}
		if r.Type == "meta" {
			metas++
			if r.ConfigHash == "" {
				return fmt.Errorf("line %d: meta record without config_hash", line)
			}
			if r.Cells <= 0 {
				return fmt.Errorf("line %d: meta record with cells=%d", line, r.Cells)
			}
			for _, p := range r.Phases {
				if !knownPhaseKeys[phaseKey(p)] {
					return fmt.Errorf("line %d: meta declares unknown phase %q", line, p)
				}
			}
			metaPhases = r.Phases
			lastIter = -1
			continue
		}
		if metas == 0 {
			return fmt.Errorf("line %d: iteration record before any meta header", line)
		}
		if r.Iter == nil {
			return fmt.Errorf("line %d: record is neither meta nor iteration (no iter field)", line)
		}
		iters++
		// The phase-key schema check needs the raw key set, which the
		// typed decode above discards.
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(raw, &keys); err != nil {
			return fmt.Errorf("line %d: not a JSON object: %v", line, err)
		}
		var unknown []string
		for k := range keys {
			if strings.HasPrefix(k, "t_") && strings.HasSuffix(k, "_ns") && !knownPhaseKeys[k] {
				unknown = append(unknown, k)
			}
		}
		if len(unknown) > 0 {
			sort.Strings(unknown) // deterministic pick across map orders
			return fmt.Errorf("line %d: unknown phase key %q", line, unknown[0])
		}
		for _, p := range metaPhases {
			if _, present := keys[phaseKey(p)]; !present {
				return fmt.Errorf("line %d: missing phase %q declared in meta", line, p)
			}
		}
		if metaPhases != nil && r.StepNS != nil {
			stepNS += *r.StepNS
			unaccountedNS += *r.StepNS
			for k, raw := range keys {
				if k == "t_step_ns" || !knownPhaseKeys[k] {
					continue
				}
				var ns int64
				if err := json.Unmarshal(raw, &ns); err != nil {
					return fmt.Errorf("line %d: phase %s is not an integer: %v", line, k, err)
				}
				unaccountedNS -= ns
			}
		}
		switch {
		case *r.Iter > lastIter:
			lastIter = *r.Iter
		case *r.Iter == 0:
			// A restart inside one traced run (e.g. timing-driven
			// placement re-running the engine) begins a new group.
			lastIter = 0
		default:
			return fmt.Errorf("line %d: iteration %d not monotone (previous %d)", line, *r.Iter, lastIter)
		}
		if r.HPWL == nil || math.IsNaN(*r.HPWL) || math.IsInf(*r.HPWL, 0) || *r.HPWL <= 0 {
			return fmt.Errorf("line %d: bad hpwl", line)
		}
		if r.StepNS == nil || *r.StepNS <= 0 {
			return fmt.Errorf("line %d: bad t_step_ns", line)
		}
		// t_solve_pair_ns is newer than the rest of the schema; absent is
		// fine (old traces), but when present the concurrent pair's wall
		// time must fit inside the whole transformation.
		if r.PairNS != nil && (*r.PairNS < 0 || *r.PairNS > *r.StepNS) {
			return fmt.Errorf("line %d: t_solve_pair_ns %d outside [0, t_step_ns=%d]", line, *r.PairNS, *r.StepNS)
		}
		// damping, likewise newer, is the fraction of the K-sized step the
		// transformation took: a zero or negative one would have frozen the
		// placement, and above 1 the step control overrode K.
		if r.Damping != nil && !(*r.Damping > 0 && *r.Damping <= 1) {
			return fmt.Errorf("line %d: damping %v outside (0, 1]", line, *r.Damping)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("read: %v", err)
	}
	if metas == 0 {
		return fmt.Errorf("no meta header record")
	}
	if iters == 0 {
		return fmt.Errorf("no iteration records")
	}
	if stepNS > 0 && float64(unaccountedNS) > maxUnaccounted*float64(stepNS) {
		return fmt.Errorf("phases leave %.1f%% of the summed step time unaccounted, more than %.0f%%",
			100*float64(unaccountedNS)/float64(stepNS), 100*maxUnaccounted)
	}
	return nil
}

// maxUnaccounted is the share of the summed step time that the declared
// phases may leave uncovered: timer reads and the few statements between
// phases, not a piece of work.
const maxUnaccounted = 0.05
