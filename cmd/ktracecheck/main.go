// Command ktracecheck validates the repo's observability artifacts so CI
// can assert they are well-formed, not merely present.
//
//	ktracecheck run.jsonl ...                 validate JSONL run traces
//	ktracecheck -flight [-reason R] dump.json validate a flight-recorder dump
//
// A run trace must open with a self-describing meta record (non-empty
// config hash, positive cell count) and every iteration record must carry
// a finite positive HPWL, a positive step time, and a monotonically
// increasing iteration number — resets to 0 mark a new run within the
// file (timing-driven placement restarts), and a new meta record starts a
// fresh group outright. Phase timing keys (t_<phase>_ns) must come from
// the known phase schema, and when the meta record declares its phase
// list, every declared phase must appear on every iteration record.
//
// A flight dump must decode into the {capacity, dropped, entries} schema;
// with -reason, at least one entry must carry that reason and a span
// tree.
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
	var (
		flight = flag.Bool("flight", false, "validate a flight-recorder dump instead of JSONL run traces")
		reason = flag.String("reason", "", "with -flight: require at least one entry with this reason (and a span tree)")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: ktracecheck [-flight [-reason R]] file...")
		os.Exit(2)
	}
	bad := false
	for _, path := range flag.Args() {
		var err error
		if *flight {
			err = checkFlight(path, *reason)
		} else {
			err = checkTrace(path)
		}
		if err != nil {
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
	return nil
}

// flightDump mirrors obsv.FlightRecorder's WriteJSON schema.
type flightDump struct {
	Capacity int `json:"capacity"`
	Dropped  int `json:"dropped"`
	Entries  []struct {
		Reason string          `json:"reason"`
		JobID  string          `json:"job_id"`
		Trace  json.RawMessage `json:"trace"`
	} `json:"entries"`
}

func checkFlight(path, reason string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ktracecheck: %v\n", err)
		os.Exit(2)
	}
	var d flightDump
	if err := json.Unmarshal(raw, &d); err != nil {
		return fmt.Errorf("not a flight dump: %v", err)
	}
	if d.Entries == nil {
		return fmt.Errorf("missing entries array")
	}
	if d.Capacity <= 0 {
		return fmt.Errorf("capacity %d", d.Capacity)
	}
	for i, e := range d.Entries {
		if e.Reason == "" {
			return fmt.Errorf("entry %d: empty reason", i)
		}
	}
	if reason != "" {
		found := false
		for i, e := range d.Entries {
			if e.Reason != reason {
				continue
			}
			if len(e.Trace) == 0 || string(e.Trace) == "null" {
				return fmt.Errorf("entry %d: reason %q without a span tree", i, reason)
			}
			found = true
		}
		if !found {
			return fmt.Errorf("no entry with reason %q (have %d entries)", reason, len(d.Entries))
		}
	}
	return nil
}
