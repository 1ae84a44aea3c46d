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

	"repro/internal/obsv"
	"repro/internal/place"
)

// getSpanTree fetches and decodes /jobs/{id}/trace.
func getSpanTree(t *testing.T, url, id string) obsv.SpanTree {
	t.Helper()
	resp, err := http.Get(url + "/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace for %s: %d", id, resp.StatusCode)
	}
	var st obsv.SpanTree
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func childNamed(sp obsv.SpanJSON, name string) (obsv.SpanJSON, bool) {
	for _, c := range sp.Children {
		if c.Name == name {
			return c, true
		}
	}
	return obsv.SpanJSON{}, false
}

// TestTraceStitchedEndToEnd submits over HTTP with a W3C traceparent
// header and checks the acceptance contract: the response echoes the
// job's own traceparent on the caller's trace, and the finished job's
// span tree stitches accept → queue → run with per-phase children.
func TestTraceStitchedEndToEnd(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	const parentHeader = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	body, err := json.Marshal(SubmitRequest{
		Netlist: netlistText(t, testNetlist(300, 21)),
		Config:  place.Config{MaxIter: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", hs.URL+"/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", parentHeader)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sr SubmitResponse
	_ = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}

	// The response propagates the trace with the job's root span as the
	// new parent — same trace id, different span id.
	echoed, ok := obsv.ParseTraceParent(resp.Header.Get("traceparent"))
	if !ok {
		t.Fatalf("response traceparent %q does not parse", resp.Header.Get("traceparent"))
	}
	if echoed.TraceID.String() != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("response trace id %s, want the caller's", echoed.TraceID)
	}
	if echoed.SpanID.String() == "b7ad6b7169203331" {
		t.Error("response span id is the caller's, want the job's root span")
	}

	st := pollTerminal(t, hs.URL, sr.ID)
	if st.State != StateDone {
		t.Fatalf("state %q", st.State)
	}
	if st.TraceID != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("status trace_id %q, want the propagated id", st.TraceID)
	}

	tree := getSpanTree(t, hs.URL, sr.ID)
	if tree.TraceID != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("trace id %s did not propagate", tree.TraceID)
	}
	if tree.RemoteParent != "b7ad6b7169203331" {
		t.Errorf("remote parent %q, want the caller's span id", tree.RemoteParent)
	}
	root := tree.Root
	if root.Name != "serve/job" || root.Open {
		t.Fatalf("root: name %q open %v, want a closed serve/job span", root.Name, root.Open)
	}
	if root.Attrs["job_id"] != sr.ID {
		t.Errorf("root job_id attr %q, want %s", root.Attrs["job_id"], sr.ID)
	}
	for _, name := range []string{"accept", "queue", "run"} {
		sp, ok := childNamed(root, name)
		if !ok {
			t.Fatalf("root has no %q child: %+v", name, root.Children)
		}
		if sp.Open || sp.DurNS < 0 {
			t.Errorf("%s span: open %v dur %d", name, sp.Open, sp.DurNS)
		}
	}
	run, _ := childNamed(root, "run")
	if run.Attrs["stop_reason"] == "" || run.Attrs["iterations"] == "" {
		t.Errorf("run span attrs: %+v", run.Attrs)
	}
	// The waterfall has one child per sequential phase (weight is zero
	// without a BeforeTransform hook, and step is the run span itself),
	// and every child ends within the run span: the solve is one
	// concurrent pair, not two solves laid end to end.
	var phases []string
	runEnd := run.Start.Add(time.Duration(run.DurNS))
	for _, c := range run.Children {
		if !strings.HasPrefix(c.Name, "phase/") {
			continue
		}
		phases = append(phases, strings.TrimPrefix(c.Name, "phase/"))
		if c.Start.Before(run.Start) || c.Start.Add(time.Duration(c.DurNS)).After(runEnd) {
			t.Errorf("%s [%v, +%dns] outside run span [%v, %v]", c.Name, c.Start, c.DurNS, run.Start, runEnd)
		}
	}
	var want []string
	for _, k := range place.PhaseKeys() {
		if k != "weight" && k != "step" {
			want = append(want, k)
		}
	}
	if !reflect.DeepEqual(phases, want) {
		t.Errorf("run span phase/* children %q, want %q", phases, want)
	}
}

// TestTraceFreshWithoutHeader: submissions without (or with malformed)
// traceparent still get a trace, and malformed headers never fail the
// request.
func TestTraceFreshWithoutHeader(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	body, _ := json.Marshal(SubmitRequest{Netlist: netlistText(t, testNetlist(80, 22)), Config: place.Config{MaxIter: 5}})
	req, _ := http.NewRequest("POST", hs.URL+"/jobs", bytes.NewReader(body))
	req.Header.Set("traceparent", "garbage-not-a-traceparent")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sr SubmitResponse
	_ = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("malformed traceparent failed the submit: %d", resp.StatusCode)
	}
	pollTerminal(t, hs.URL, sr.ID)
	tree := getSpanTree(t, hs.URL, sr.ID)
	if tree.TraceID == "" || tree.TraceID == "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("fresh trace id %q", tree.TraceID)
	}
	if tree.RemoteParent != "" {
		t.Errorf("fresh trace has remote parent %q", tree.RemoteParent)
	}
}

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

// TestDeadlineMissFlightRecord induces a deadline miss and checks the
// flight recorder holds a bundle with that job's span tree — the ISSUE's
// acceptance criterion for the anomaly path.
func TestDeadlineMissFlightRecord(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	code, sr := postJob(t, hs.URL, SubmitRequest{
		Netlist:    netlistText(t, testNetlist(1500, 25)),
		Config:     place.Config{MaxIter: 400},
		DeadlineMS: 100,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	st := pollTerminal(t, hs.URL, sr.ID)
	if st.StopReason != place.StopDeadline {
		t.Skipf("job finished before its deadline (stop %q); machine too fast for this fixture", st.StopReason)
	}

	entries := s.FlightRecorder().Snapshot()
	var hit *obsv.FlightEntry
	for i := range entries {
		if entries[i].Reason == "deadline_miss" && entries[i].JobID == sr.ID {
			hit = &entries[i]
		}
	}
	if hit == nil {
		t.Fatalf("no deadline_miss entry for %s in %d records", sr.ID, len(entries))
	}
	if hit.Trace == nil || hit.Trace.Root.Name != "serve/job" {
		t.Fatalf("flight entry carries no span tree: %+v", hit.Trace)
	}
	if _, ok := childNamed(hit.Trace.Root, "run"); !ok {
		t.Error("flight entry's trace has no run span")
	}
	// Samples mirror actual progress; a deadline so tight that no
	// iteration finished leaves them legitimately empty.
	if samples, ok := hit.Samples.([]Event); ok && len(samples) == 0 && st.Iterations > 0 {
		t.Errorf("flight entry has no iteration samples after %d iterations", st.Iterations)
	}

	// The HTTP dump parses and contains the entry.
	resp, err := http.Get(hs.URL + "/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flightrecorder: %d", resp.StatusCode)
	}
	var dump struct {
		Entries []struct {
			Reason string          `json:"reason"`
			JobID  string          `json:"job_id"`
			Trace  json.RawMessage `json:"trace"`
		} `json:"entries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range dump.Entries {
		if e.Reason == "deadline_miss" && e.JobID == sr.ID && len(e.Trace) > 0 && string(e.Trace) != "null" {
			found = true
		}
	}
	if !found {
		t.Fatalf("HTTP dump missing the deadline_miss entry: %+v", dump.Entries)
	}
}

// TestRejectBurstFlightRecord floods a full queue past the burst
// threshold and checks a reject_burst bundle lands in the recorder.
func TestRejectBurstFlightRecord(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 1, RejectBurst: 3})

	gate := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	blocker, err := s.Submit(JobRequest{
		Netlist: testNetlist(60, 26),
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
	text := netlistText(t, testNetlist(60, 27))
	if code, _ := postJob(t, hs.URL, SubmitRequest{Netlist: text, Config: place.Config{MaxIter: 3}}); code != http.StatusAccepted {
		t.Fatalf("queue-filling submit: %d", code)
	}
	body, _ := json.Marshal(SubmitRequest{Netlist: text, Config: place.Config{MaxIter: 3}})
	for i := 0; i < 3; i++ {
		resp, err := http.Post(hs.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("rejection %d: %d, want 429", i, resp.StatusCode)
		}
	}

	found := false
	for _, e := range s.FlightRecorder().Snapshot() {
		if e.Reason == "reject_burst" {
			found = true
		}
	}
	if !found {
		t.Fatal("3 rejections with RejectBurst=3 recorded no reject_burst bundle")
	}
	close(gate)
	pollTerminal(t, hs.URL, blocker.ID())
}

// TestHealthzEnriched pins the JSON health schema: queue depth, active
// workers, capacity, uptime, and flight-record count.
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

// TestCancelQueuedClosesStream: cancelling a queued job must end the
// trace and the event stream, not leave readers parked forever.
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
	tree := getSpanTree(t, hs.URL, queued.ID())
	if tree.Root.Open {
		t.Error("cancelled queued job's root span still open")
	}
	close(gate)
	pollTerminal(t, hs.URL, blocker.ID())
}

// TestConcurrentSubmitStreamDump is the -race exercise: jobs submitted,
// streamed, traced, and flight-dumped from many goroutines at once.
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
				resp, err := http.Get(hs.URL + "/jobs/" + id + "/trace")
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				resp, err = http.Get(hs.URL + "/debug/flightrecorder")
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
