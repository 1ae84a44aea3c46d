// Run metadata: a self-describing header for JSONL run traces. A trace
// file that begins with a RunMeta record can be interpreted years later
// without the command line that produced it — the design size, the seed,
// and a hash of every algorithmic knob travel with the data.
package place

import (
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/netlist"
)

// Hash digests the algorithmic configuration — every knob of the knob
// table and whether BeforeTransform and ExtraDemand are set, and none of
// the observability hooks (Spans, Metrics, OnIteration, NoTrace). Two runs
// with equal hashes on equal inputs walk the same iterations. The digest
// is FNV-1a over a canonical text rendering, so it is stable across
// processes and platforms but NOT across releases that add knobs; it
// identifies configurations, it does not authenticate them.
func (c Config) Hash() string {
	// Hash the knobs as given: GridBins=0 ("automatic") hashes as 0,
	// which is correct — the resolved resolution follows from the
	// netlist, and NewRunMeta resolves defaults before hashing so
	// recorded hashes describe the run as executed.
	h := fnv.New64a()
	put := func(format string, args ...any) {
		fmt.Fprintf(h, format, args...)
		h.Write([]byte{0}) // field separator: ("ab","c") ≠ ("a","bc")
	}
	for _, k := range knobs {
		put("%s=%v", k.Key, k.value(&c))
	}
	put("before_transform=%t", c.BeforeTransform != nil)
	put("extra_demand=%t", c.ExtraDemand != nil)
	return fmt.Sprintf("%016x", h.Sum64())
}

// RunMeta is the header record of a JSONL run trace. Type distinguishes
// it from IterStats records (which have no "type" key), so line-oriented
// consumers can dispatch on the first byte-cheap field.
type RunMeta struct {
	Type       string  `json:"type"` // always "meta"
	Design     string  `json:"design"`
	Cells      int     `json:"cells"`
	Nets       int     `json:"nets"`
	Movable    int     `json:"movable"`
	Seed       int64   `json:"seed"`
	K          float64 `json:"k"`
	MaxIter    int     `json:"max_iter"`
	ConfigHash string  `json:"config_hash"`
	// Phases is the canonical phase-key list (PhaseKeys) at record time,
	// making traces self-describing: a checker can demand exactly these
	// t_<phase>_ns keys without compiling against this package's version.
	Phases []string  `json:"phases"`
	Start  time.Time `json:"start"`
}

// NewRunMeta builds the header for a run of cfg on nl. The config is
// resolved to its defaults first so the recorded K/MaxIter (and the
// hash) describe what will actually run, not what was typed.
func NewRunMeta(nl *netlist.Netlist, cfg Config, seed int64, start time.Time) RunMeta {
	cfg.setDefaults(nl)
	return RunMeta{
		Type:       "meta",
		Design:     nl.Name,
		Cells:      len(nl.Cells),
		Nets:       len(nl.Nets),
		Movable:    nl.NumMovable(),
		Seed:       seed,
		K:          cfg.K,
		MaxIter:    cfg.MaxIter,
		ConfigHash: cfg.Hash(),
		Phases:     PhaseKeys(),
		Start:      start,
	}
}
