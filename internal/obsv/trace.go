package obsv

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"sync"
)

// TraceWriter streams run-trace records as JSON Lines: one
// newline-terminated JSON object per record. Writes are serialized, so a
// single writer can collect records from concurrent runs. A nil
// *TraceWriter discards everything, letting callers thread an optional
// trace sink without branching.
type TraceWriter struct {
	mu  sync.Mutex
	buf *bufio.Writer
	c   io.Closer // non-nil when TraceWriter owns the underlying file
}

// NewTraceWriter wraps w in a buffered JSONL encoder. Call Close (or at
// least Flush) when done.
func NewTraceWriter(w io.Writer) *TraceWriter {
	return &TraceWriter{buf: bufio.NewWriter(w)}
}

// OpenTrace creates (truncating) a JSONL trace file at path.
func OpenTrace(path string) (*TraceWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	t := NewTraceWriter(f)
	t.c = f
	return t, nil
}

// Write appends one record as a JSON line. Safe on nil (no-op).
func (t *TraceWriter) Write(rec any) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	enc := json.NewEncoder(t.buf) // Encode appends the trailing newline
	// Encoding under the lock is the lock's purpose: it serializes
	// writers into the shared buffer. The write lands in memory; the file
	// only sees Flush.
	return enc.Encode(rec)
}

// Flush pushes buffered records to the underlying writer. Safe on nil.
func (t *TraceWriter) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Flush must exclude a concurrent Write or records interleave
	// mid-line; trace I/O stalling a tracer is the accepted cost.
	return t.buf.Flush()
}

// Close flushes and, when the writer owns the underlying file, closes it.
// Safe on nil.
func (t *TraceWriter) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// The final flush runs under the writer lock: Close must win against
	// any straggling Write before the file goes away.
	err := t.buf.Flush()
	if t.c != nil {
		if cerr := t.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
