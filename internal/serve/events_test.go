package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/place"
)

// TestEventStreamSSE streams a job's convergence over SSE and checks the
// stream contract: contiguous sequence numbers, monotone iteration
// numbers, sane samples, and a final event carrying the terminal state.
func TestEventStreamSSE(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	code, sr := postJob(t, hs.URL, SubmitRequest{
		Netlist: netlistText(t, testNetlist(800, 23)),
		Config:  place.Config{MaxIter: 40},
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}

	resp, err := http.Get(hs.URL + "/jobs/" + sr.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q, want text/event-stream", ct)
	}

	var (
		events   []Event
		lastID   = -1
		sc       = bufio.NewScanner(resp.Body)
		sawFinal bool
	)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			id, err := strconv.Atoi(strings.TrimPrefix(line, "id: "))
			if err != nil {
				t.Fatalf("bad id line %q", line)
			}
			if id != lastID+1 {
				t.Fatalf("sequence gap: id %d after %d", id, lastID)
			}
			lastID = id
		case strings.HasPrefix(line, "data: "):
			var e Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
				t.Fatalf("bad data line %q: %v", line, err)
			}
			events = append(events, e)
			if e.Final {
				sawFinal = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawFinal {
		t.Fatal("stream ended without a final event")
	}
	if len(events) < 2 {
		t.Fatalf("only %d events", len(events))
	}
	final := events[len(events)-1]
	if final.State != StateDone {
		t.Errorf("final state %q, want done", final.State)
	}
	for i, e := range events[:len(events)-1] {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
		if i > 0 && e.Iter < events[i-1].Iter {
			t.Fatalf("iteration regressed: %d after %d", e.Iter, events[i-1].Iter)
		}
		if e.HPWL <= 0 || e.TStep <= 0 || e.GapProxy < 0 {
			t.Fatalf("implausible sample %+v", e)
		}
	}

	// Resume from a mid-stream cursor: only the tail comes back.
	from := events[len(events)/2].Seq
	resp2, err := http.Get(fmt.Sprintf("%s/jobs/%s/events?poll=1&from=%d", hs.URL, sr.ID, from))
	if err != nil {
		t.Fatal(err)
	}
	var batch EventBatch
	if err := json.NewDecoder(resp2.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if !batch.Done {
		t.Error("finished job's batch not done")
	}
	if len(batch.Events) == 0 || batch.Events[0].Seq != from {
		t.Errorf("resume from %d returned %d events starting at %v", from, len(batch.Events), batch.Events)
	}
	if batch.Next != lastID+1 {
		t.Errorf("batch next %d, want %d", batch.Next, lastID+1)
	}
}

// TestEventsCarryIterStats: every non-final event of a job is, key for
// key, the trace record a user OnIteration chained on the same job
// received, so /jobs/{id}/events speaks kplace's trace schema,
// convergence fields included.
func TestEventsCarryIterStats(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	var (
		mu   sync.Mutex
		seen []place.IterStats
	)
	job, err := s.Submit(JobRequest{
		Netlist: testNetlist(400, 26),
		Config: place.Config{MaxIter: 12, OnIteration: func(st place.IterStats) {
			mu.Lock()
			seen = append(seen, st)
			mu.Unlock()
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	pollTerminal(t, hs.URL, job.ID())

	resp, err := http.Get(hs.URL + "/jobs/" + job.ID() + "/events?poll=1")
	if err != nil {
		t.Fatal(err)
	}
	var batch struct {
		Events []map[string]any `json:"events"`
	}
	err = json.NewDecoder(resp.Body).Decode(&batch)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) == 0 || len(batch.Events) != len(seen)+1 {
		t.Fatalf("%d events for %d observed iterations, want one each plus the final", len(batch.Events), len(seen))
	}
	for i, st := range seen {
		raw, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		var want map[string]any
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
		want["seq"] = float64(i)
		if got := batch.Events[i]; !reflect.DeepEqual(got, want) {
			t.Fatalf("event %d:\n got %v\nwant %v", i, got, want)
		}
	}
}

// TestEventStreamLongPollWhileRunning parks a long-poll on an idle gated
// job and checks it wakes when the first iteration lands.
func TestEventStreamLongPollWhileRunning(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	gate := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	job, err := s.Submit(JobRequest{
		Netlist: testNetlist(60, 24),
		Config: place.Config{MaxIter: 3, BeforeTransform: func(iter int, _ *place.Placer) {
			once.Do(func() { close(started) })
			if iter == 1 {
				<-gate
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	// Iteration 0 completes, then the job blocks before iteration 1; the
	// poll must return that first event rather than time out.
	resp, err := http.Get(hs.URL + "/jobs/" + job.ID() + "/events?poll=1")
	if err != nil {
		t.Fatal(err)
	}
	var batch EventBatch
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(batch.Events) == 0 {
		t.Fatal("long-poll on a progressing job returned no events")
	}
	if batch.Events[0].Iter != 0 {
		t.Errorf("first event iter %d", batch.Events[0].Iter)
	}
	close(gate)
	pollTerminal(t, hs.URL, job.ID())
}

// TestDeadlineMissExplainsItself induces a deadline miss and checks the
// job's own record says what happened: the status carries the state, the
// stop reason and ordered timestamps (queue wait and run time), and the
// sealed event stream carries the per-iteration phase times.
func TestDeadlineMissExplainsItself(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	code, sr := postJob(t, hs.URL, SubmitRequest{
		Netlist:    netlistText(t, testNetlist(1500, 25)),
		Config:     place.Config{MaxIter: 400},
		DeadlineMS: 100,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	st := pollTerminal(t, hs.URL, sr.ID)
	if st.State != StateDone || st.StopReason != place.StopDeadline {
		t.Fatalf("state %q stop %q, want done/deadline", st.State, st.StopReason)
	}
	if st.SubmittedAt.IsZero() || st.StartedAt.Before(st.SubmittedAt) || st.FinishedAt.Before(st.StartedAt) {
		t.Errorf("timestamps out of order: submitted %v started %v finished %v", st.SubmittedAt, st.StartedAt, st.FinishedAt)
	}

	resp, err := http.Get(hs.URL + "/jobs/" + sr.ID + "/events?poll=1")
	if err != nil {
		t.Fatal(err)
	}
	var batch EventBatch
	err = json.NewDecoder(resp.Body).Decode(&batch)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	n := len(batch.Events)
	if !batch.Done || n == 0 {
		t.Fatalf("finished job's batch: done %v with %d events", batch.Done, n)
	}
	if last := batch.Events[n-1]; !last.Final || last.State != StateDone {
		t.Errorf("final event %+v, want final with state done", last)
	}
	for _, e := range batch.Events[:n-1] {
		var sum time.Duration
		e.Phases.Each(func(k string, d time.Duration) {
			if k != "step" {
				sum += d
			}
		})
		if sum > e.TStep {
			t.Errorf("iteration %d: phases sum to %v, more than the step's %v", e.Iter, sum, e.TStep)
		}
	}
}

// TestHealthzEnriched pins the JSON health schema: queue depth, active
// workers, capacity, and uptime.
func TestHealthzEnriched(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 2, QueueDepth: 7})

	gate := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	job, err := s.Submit(JobRequest{
		Netlist: testNetlist(60, 28),
		Config: place.Config{MaxIter: 3, BeforeTransform: func(iter int, _ *place.Placer) {
			once.Do(func() { close(started) })
			if iter == 0 {
				<-gate
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" || h.Workers != 2 || h.QueueCap != 7 {
		t.Errorf("health identity: %+v", h)
	}
	if h.ActiveWorkers != 1 {
		t.Errorf("active_workers %d with one gated job, want 1", h.ActiveWorkers)
	}
	if h.Running != 1 || h.Jobs != 1 {
		t.Errorf("running %d jobs %d, want 1/1", h.Running, h.Jobs)
	}
	if h.UptimeSec < 0 {
		t.Errorf("uptime %g", h.UptimeSec)
	}
	close(gate)
	pollTerminal(t, hs.URL, job.ID())
}

// TestQueueWaitMetrics checks the queue-wait/run-time split lands in the
// Prometheus encoding with quantile companions.
func TestQueueWaitMetrics(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	code, sr := postJob(t, hs.URL, SubmitRequest{Netlist: netlistText(t, testNetlist(80, 29)), Config: place.Config{MaxIter: 5}})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	pollTerminal(t, hs.URL, sr.ID)

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{
		"serve_queue_wait_seconds_count 1",
		"serve_run_seconds_count 1",
		"serve_run_seconds_p50",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestCancelQueuedClosesStream: cancelling a queued job must finish its
// record and end its event stream, not leave readers parked forever.
func TestCancelQueuedClosesStream(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 2})

	gate := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	blocker, err := s.Submit(JobRequest{
		Netlist: testNetlist(60, 30),
		Config: place.Config{MaxIter: 3, BeforeTransform: func(iter int, _ *place.Placer) {
			once.Do(func() { close(started) })
			if iter == 0 {
				<-gate
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := s.Submit(JobRequest{Netlist: testNetlist(60, 31), Config: place.Config{MaxIter: 3}})
	if err != nil {
		t.Fatal(err)
	}
	queued.Cancel()

	resp, err := http.Get(hs.URL + "/jobs/" + queued.ID() + "/events?poll=1")
	if err != nil {
		t.Fatal(err)
	}
	var batch EventBatch
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !batch.Done {
		t.Error("cancelled queued job's stream not done")
	}
	if n := len(batch.Events); n == 0 || !batch.Events[n-1].Final || batch.Events[n-1].State != StateCancelled {
		t.Errorf("terminal event: %+v", batch.Events)
	}
	st := getStatus(t, hs.URL, queued.ID())
	if st.State != StateCancelled || st.StopReason != place.StopCancelled {
		t.Errorf("cancelled queued job: state %q stop %q", st.State, st.StopReason)
	}
	if st.FinishedAt.IsZero() || !st.StartedAt.IsZero() {
		t.Errorf("cancelled queued job: started %v finished %v, want only finished", st.StartedAt, st.FinishedAt)
	}
	close(gate)
	pollTerminal(t, hs.URL, blocker.ID())
}

// TestConcurrentSubmitStreamDump is the -race exercise: jobs submitted,
// streamed, and their status and the server health read from many
// goroutines at once.
func TestConcurrentSubmitStreamDump(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 4, QueueDepth: 32})

	const jobs = 8
	ids := make([]string, jobs)
	for i := 0; i < jobs; i++ {
		code, sr := postJob(t, hs.URL, SubmitRequest{
			Netlist: netlistText(t, testNetlist(150, int64(40+i))),
			Config:  place.Config{MaxIter: 20},
		})
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, code)
		}
		ids[i] = sr.ID
	}

	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			// Drain the job's stream via long-poll until done.
			from := 0
			for {
				resp, err := http.Get(fmt.Sprintf("%s/jobs/%s/events?poll=1&from=%d", hs.URL, id, from))
				if err != nil {
					t.Error(err)
					return
				}
				var batch EventBatch
				err = json.NewDecoder(resp.Body).Decode(&batch)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				for i, e := range batch.Events {
					if i > 0 && e.Seq != batch.Events[i-1].Seq+1 {
						t.Errorf("job %s: seq gap %d -> %d", id, batch.Events[i-1].Seq, e.Seq)
						return
					}
				}
				from = batch.Next
				if batch.Done {
					return
				}
			}
		}(id)
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, err := http.Get(hs.URL + "/jobs/" + id)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				resp, err = http.Get(hs.URL + "/healthz")
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}(id)
	}
	wg.Wait()
	for _, id := range ids {
		if st := pollTerminal(t, hs.URL, id); st.State != StateDone {
			t.Errorf("job %s ended %q", id, st.State)
		}
	}
	_ = s
}
