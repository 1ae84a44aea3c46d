package serve

import (
	"sync"

	"repro/internal/place"
)

// Event is one per-iteration progress sample of a job — the payload of
// GET /jobs/{id}/events. Seq is the stream cursor: it increments by one
// per event for the job's lifetime, so a client that reconnects with its
// last seen seq misses nothing that is still buffered. The embedded
// place.IterStats is the record kplace writes to its -trace file, so each
// event carries the run trace's keys, convergence and t_*_ns phases
// included. The stream ends with a Final event whose State is the job's
// terminal state and whose record holds only the run's final iter, hpwl
// and overflow; the ring stays readable after the job ends.
type Event struct {
	Seq int `json:"seq"`
	place.IterStats
	// Final marks the stream's last event; State carries the job's
	// terminal state on it.
	Final bool  `json:"final,omitempty"`
	State State `json:"state,omitempty"`
}

// progressCap bounds the per-job event ring. 256 iterations of history
// comfortably covers reconnect gaps while keeping per-job memory flat;
// a client further behind resumes from the oldest buffered event.
const progressCap = 256

// progress is one job's bounded event ring plus a broadcast wake-up: no
// goroutines, no per-subscriber state. Writers append; readers poll
// since(cursor) and, when empty, block on the returned wake channel,
// which append closes-and-replaces (a closed channel wakes every waiter
// at once).
type progress struct {
	mu     sync.Mutex
	buf    []Event // ring, cap progressCap
	start  int     // index of oldest event
	seq    int     // next sequence number (== total events appended)
	wake   chan struct{}
	closed bool
}

func newProgress() *progress {
	return &progress{wake: make(chan struct{})}
}

// append stamps the event's Seq, stores it (evicting the oldest past
// capacity), and wakes every waiting reader.
func (p *progress) append(e Event) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	e.Seq = p.seq
	p.seq++
	if len(p.buf) < progressCap {
		p.buf = append(p.buf, e)
	} else {
		p.buf[p.start] = e
		p.start = (p.start + 1) % len(p.buf)
	}
	close(p.wake)
	p.wake = make(chan struct{})
	p.mu.Unlock()
}

// closeWith appends a final event and seals the stream; readers draining
// past it observe closed=true and stop waiting. Idempotent.
func (p *progress) closeWith(e Event) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	e.Seq = p.seq
	p.seq++
	e.Final = true
	if len(p.buf) < progressCap {
		p.buf = append(p.buf, e)
	} else {
		p.buf[p.start] = e
		p.start = (p.start + 1) % len(p.buf)
	}
	p.closed = true
	close(p.wake)
	p.mu.Unlock()
}

// since returns buffered events with Seq >= from (oldest first), a
// channel that closes on the next append, and whether the stream is
// sealed. An empty batch with closed=false means "wait on wake".
func (p *progress) since(from int) (events []Event, wake <-chan struct{}, closed bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.buf)
	for i := 0; i < n; i++ {
		e := p.buf[(p.start+i)%n]
		if e.Seq >= from {
			events = append(events, e)
		}
	}
	return events, p.wake, p.closed
}
