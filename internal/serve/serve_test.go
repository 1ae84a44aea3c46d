package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netgen"
	"repro/internal/netlist"
	"repro/internal/place"
)

func testNetlist(cells int, seed int64) *netlist.Netlist {
	return netgen.Generate(netgen.Config{
		Name: "svc", Cells: cells, Nets: cells + cells/3, Rows: 8, Seed: seed,
	})
}

func netlistText(t testing.TB, nl *netlist.Netlist) string {
	t.Helper()
	var buf bytes.Buffer
	if err := netlist.Write(&buf, nl); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func postJob(t *testing.T, url string, req SubmitRequest) (int, SubmitResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr SubmitResponse
	_ = json.NewDecoder(resp.Body).Decode(&sr)
	return resp.StatusCode, sr
}

func getStatus(t *testing.T, url, id string) Status {
	t.Helper()
	resp, err := http.Get(url + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s: %d", id, resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// pollTerminal polls a job until it reaches a terminal state.
func pollTerminal(t *testing.T, url, id string) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, url, id)
		if st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return Status{}
}

// assertLegalResult fetches /jobs/{id}/result and checks the placement is
// parseable and every movable cell sits at a finite position inside the
// region: the partial-result legality contract.
func assertLegalResult(t *testing.T, url, id string) *netlist.Netlist {
	t.Helper()
	resp, err := http.Get(url + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result for %s: %d", id, resp.StatusCode)
	}
	nl, err := netlist.Read(resp.Body)
	if err != nil {
		t.Fatalf("result for %s does not parse: %v", id, err)
	}
	out := nl.Region.Outline
	for i := range nl.Cells {
		c := nl.Cells[i]
		if c.Fixed {
			continue
		}
		if math.IsNaN(c.Pos.X) || math.IsNaN(c.Pos.Y) || !out.Contains(c.Pos) {
			t.Fatalf("result for %s: cell %d at illegal position %v", id, i, c.Pos)
		}
	}
	if h := nl.HPWL(); math.IsNaN(h) || math.IsInf(h, 0) || h <= 0 {
		t.Fatalf("result for %s: HPWL %v", id, h)
	}
	return nl
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, hs
}

// TestSubmitPollResult is the happy path end to end: submit over HTTP,
// poll to completion, fetch a legal placed netlist, and see the job in
// the listing, the health report, and the metrics.
func TestSubmitPollResult(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2, QueueDepth: 8})

	code, sr := postJob(t, hs.URL, SubmitRequest{
		Netlist: netlistText(t, testNetlist(300, 1)),
		Config:  place.Config{MaxIter: 120},
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	st := pollTerminal(t, hs.URL, sr.ID)
	if st.State != StateDone {
		t.Fatalf("state %q (stop %q, err %q), want done", st.State, st.StopReason, st.Error)
	}
	if st.Iterations <= 0 || st.HPWL <= 0 {
		t.Fatalf("implausible result: %+v", st)
	}
	switch st.StopReason {
	case place.StopCriterion, place.StopStagnation, place.StopMaxIter:
	default:
		t.Fatalf("unexpected stop reason %q", st.StopReason)
	}
	assertLegalResult(t, hs.URL, sr.ID)

	// Listing contains the job.
	resp, err := http.Get(hs.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var all []Status
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(all) != 1 || all[0].ID != sr.ID {
		t.Fatalf("listing = %+v", all)
	}

	// Health and metrics endpoints respond.
	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	resp, err = http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	_, _ = mbuf.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(mbuf.String(), "serve_jobs_submitted_total 1") {
		t.Fatalf("metrics missing submission counter:\n%s", mbuf.String())
	}
}

// TestQueueFullBackpressure fills the single-slot queue behind a blocked
// worker and checks the next submission bounces with 429 + Retry-After.
func TestQueueFullBackpressure(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	gate := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	blocker, err := s.Submit(JobRequest{
		Netlist: testNetlist(60, 2),
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
	<-started // the worker is now occupied; the queue is empty

	text := netlistText(t, testNetlist(60, 3))
	code, queued := postJob(t, hs.URL, SubmitRequest{Netlist: text, Config: place.Config{MaxIter: 3}})
	if code != http.StatusAccepted {
		t.Fatalf("queue-filling submit: %d", code)
	}

	body, _ := json.Marshal(SubmitRequest{Netlist: text, Config: place.Config{MaxIter: 3}})
	resp, err := http.Post(hs.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	close(gate)
	if st := pollTerminal(t, hs.URL, blocker.ID()); st.State != StateDone {
		t.Fatalf("blocker ended %q", st.State)
	}
	if st := pollTerminal(t, hs.URL, queued.ID); st.State != StateDone {
		t.Fatalf("queued job ended %q", st.State)
	}
}

// TestCancelMidRun cancels a running job over HTTP and checks it stops
// with a usable partial placement and stop_reason "cancelled".
func TestCancelMidRun(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	started := make(chan struct{})
	var once sync.Once
	job, err := s.Submit(JobRequest{
		Netlist: testNetlist(300, 4),
		Config: place.Config{MaxIter: 100000, StopSquareFactor: 1e-9, BeforeTransform: func(int, *place.Placer) {
			once.Do(func() { close(started) })
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	resp, err := http.Post(hs.URL+"/jobs/"+job.ID()+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}

	st := pollTerminal(t, hs.URL, job.ID())
	if st.State != StateCancelled {
		t.Fatalf("state %q, want cancelled", st.State)
	}
	if st.StopReason != place.StopCancelled {
		t.Fatalf("stop reason %q, want %q", st.StopReason, place.StopCancelled)
	}
	if st.Iterations >= 100000 {
		t.Fatalf("cancelled job ran to completion (%d iterations)", st.Iterations)
	}
	// A cancelled job still serves its partial placement.
	assertLegalResult(t, hs.URL, job.ID())
}

// TestDeadlinePartial submits a job whose deadline cannot possibly cover
// full convergence and checks graceful degradation: the job *succeeds*
// with stop_reason "deadline" and a legal partial placement.
func TestDeadlinePartial(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	code, sr := postJob(t, hs.URL, SubmitRequest{
		Netlist:    netlistText(t, testNetlist(1500, 5)),
		Config:     place.Config{MaxIter: 400},
		DeadlineMS: 100,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	st := pollTerminal(t, hs.URL, sr.ID)
	if st.State != StateDone {
		t.Fatalf("state %q (err %q), want done — deadline expiry must not be an error", st.State, st.Error)
	}
	if st.StopReason != place.StopDeadline {
		t.Fatalf("stop reason %q, want %q", st.StopReason, place.StopDeadline)
	}
	if st.Error != "" {
		t.Fatalf("deadline partial carries error %q", st.Error)
	}
	assertLegalResult(t, hs.URL, sr.ID)
}

// TestPanicIsolation crashes one job and checks the blast radius is that
// job alone: its neighbours complete, the worker pool survives, and a
// job submitted afterwards still runs.
func TestPanicIsolation(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 2, QueueDepth: 8})

	bomb, err := s.Submit(JobRequest{
		Netlist: testNetlist(100, 6),
		Config: place.Config{MaxIter: 50, BeforeTransform: func(iter int, _ *place.Placer) {
			if iter == 1 {
				panic("injected failure")
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	text := netlistText(t, testNetlist(200, 7))
	code1, n1 := postJob(t, hs.URL, SubmitRequest{Netlist: text, Config: place.Config{MaxIter: 60}})
	code2, n2 := postJob(t, hs.URL, SubmitRequest{Netlist: text, Config: place.Config{MaxIter: 60}})
	if code1 != http.StatusAccepted || code2 != http.StatusAccepted {
		t.Fatalf("submits: %d, %d", code1, code2)
	}

	st := pollTerminal(t, hs.URL, bomb.ID())
	if st.State != StateFailed {
		t.Fatalf("panicking job state %q, want failed", st.State)
	}
	if !strings.Contains(st.Error, "panic") || !strings.Contains(st.Error, "injected failure") {
		t.Fatalf("panicking job error %q", st.Error)
	}
	for _, id := range []string{n1.ID, n2.ID} {
		if st := pollTerminal(t, hs.URL, id); st.State != StateDone {
			t.Fatalf("neighbour %s ended %q — panic was not isolated", id, st.State)
		}
	}
	// The pool still accepts and runs work.
	code3, n3 := postJob(t, hs.URL, SubmitRequest{Netlist: text, Config: place.Config{MaxIter: 30}})
	if code3 != http.StatusAccepted {
		t.Fatalf("post-panic submit: %d", code3)
	}
	if st := pollTerminal(t, hs.URL, n3.ID); st.State != StateDone {
		t.Fatalf("post-panic job ended %q", st.State)
	}
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic: %d", resp.StatusCode)
	}
}

// TestShutdownDrainsAndCheckpoints stops the server while a job is mid
// run and checks the graceful-shutdown contract: the job is cancelled at
// a transformation boundary, its state is serialized to a resumable
// checkpoint, and new submissions bounce with 503.
func TestShutdownDrainsAndCheckpoints(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Workers: 1, QueueDepth: 4, CheckpointDir: dir})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	job, err := s.Submit(JobRequest{
		Netlist: testNetlist(800, 8),
		Config:  place.Config{MaxIter: 100000, StopSquareFactor: 1e-9},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Let it make real progress before pulling the plug.
	for deadline := time.Now().Add(30 * time.Second); ; {
		if st := job.Status(); st.Iterations >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job made no progress")
		}
		time.Sleep(2 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	st := job.Status()
	if st.State != StateCancelled {
		t.Fatalf("drained job state %q, want cancelled", st.State)
	}
	if st.Checkpoint == "" {
		t.Fatal("drained job has no checkpoint")
	}
	f, err := os.Open(st.Checkpoint)
	if err != nil {
		t.Fatalf("checkpoint file: %v", err)
	}
	ck, err := place.DecodeCheckpoint(f)
	f.Close()
	if err != nil {
		t.Fatalf("checkpoint does not decode: %v", err)
	}
	if ck.Iter < 2 {
		t.Fatalf("checkpoint at iteration %d, want >= 2", ck.Iter)
	}

	// The checkpoint resumes on a fresh copy of the design.
	fresh := testNetlist(800, 8)
	p, err := place.Resume(fresh, place.Config{MaxIter: ck.Iter + 5}, ck)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if res.Iterations != ck.Iter+5 {
		t.Fatalf("resumed run stopped at %d, want %d", res.Iterations, ck.Iter+5)
	}

	// Draining server: health 503, submissions rejected.
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", resp.StatusCode)
	}
	if _, err := s.Submit(JobRequest{Netlist: testNetlist(60, 9)}); err != ErrDraining {
		t.Fatalf("Submit after Shutdown: %v, want ErrDraining", err)
	}
	body, _ := json.Marshal(SubmitRequest{Netlist: netlistText(t, testNetlist(60, 9))})
	hresp, err := http.Post(hs.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("HTTP submit after Shutdown: %d, want 503", hresp.StatusCode)
	}
}

// TestUnknownJob404 covers the lookup error path.
func TestUnknownJob404(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	for _, path := range []string{"/jobs/nope", "/jobs/nope/result"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: %d, want 404", path, resp.StatusCode)
		}
	}
	resp, err := http.Post(hs.URL+"/jobs", "application/json", strings.NewReader(`{"netlist":"garbage"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad netlist submit: %d, want 400", resp.StatusCode)
	}
}

// TestResultNotReady covers the 409 until-terminal contract.
func TestResultNotReady(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	gate := make(chan struct{})
	defer func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
	}()
	started := make(chan struct{})
	var once sync.Once
	job, err := s.Submit(JobRequest{
		Netlist: testNetlist(60, 10),
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
	resp, err := http.Get(hs.URL + "/jobs/" + job.ID() + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result of running job: %d, want 409", resp.StatusCode)
	}
	close(gate)
	pollTerminal(t, hs.URL, job.ID())
}

// TestSubmitSolverKnobs: the cg_tol/cg_max_iter request fields reach the
// per-job CG solves and the job still finishes legal, and values of the
// wrong type are rejected up front with a 400 rather than queued.
func TestSubmitSolverKnobs(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	text := netlistText(t, testNetlist(200, 7))

	cfg := place.Config{MaxIter: 10}
	cfg.CG.Tol = 1e-5
	cfg.CG.MaxIter = 50
	code, sr := postJob(t, hs.URL, SubmitRequest{Netlist: text, Config: cfg})
	if code != http.StatusAccepted {
		t.Fatalf("submit with solver knobs: %d", code)
	}
	if st := pollTerminal(t, hs.URL, sr.ID); st.State != StateDone {
		t.Fatalf("state %q (err %q), want done", st.State, st.Error)
	}
	assertLegalResult(t, hs.URL, sr.ID)

	for _, knob := range []map[string]any{
		{"cg_tol": "tight"},
		{"cg_max_iter": 1.5},
		{"cg_max_iter": "many"},
	} {
		if code, _ := postBody(t, hs.URL, text, knob); code != http.StatusBadRequest {
			t.Fatalf("bad knob %v accepted with %d, want 400", knob, code)
		}
	}
}

// TestSubmitRejectsUnknownKeys: a retired knob or a misspelled one is a 400,
// not a silently ignored key that runs the job under other settings. The
// solves always use IC0 and the grid picks the field method, so precond
// and field are retired too, whatever their value.
func TestSubmitRejectsUnknownKeys(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	text := netlistText(t, testNetlist(60, 8))
	for _, extra := range []map[string]any{
		{"cold": true},
		{"net_model": "clique"},
		{"precond": "ic0"},
		{"precond": "ilu"},
		{"field": "rfft"},
		{"field": "fft"},
		{"precon": "ic0"},
	} {
		code, er := postBody(t, hs.URL, text, extra)
		if code != http.StatusBadRequest {
			t.Fatalf("submit with %v: %d, want 400", extra, code)
		}
		for k := range extra {
			if !strings.Contains(er.Error, k) {
				t.Errorf("submit with %v: error %q does not name the key", extra, er.Error)
			}
		}
	}
}

// TestSubmitEveryKnob posts every knob of the knob table under its JSON
// key: the job is accepted, and the body decodes to the Config that sets
// each field directly. A SubmitRequest encodes back to the same body.
func TestSubmitEveryKnob(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	text := netlistText(t, testNetlist(60, 11))
	var want place.Config
	body := map[string]any{}
	for _, k := range place.Knobs() {
		v := reflect.ValueOf(k.Ptr(&want)).Elem()
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int:
			v.SetInt(1)
		case reflect.Float64:
			v.SetFloat(0.5)
		default:
			t.Fatalf("knob %s has kind %s", k.Key, v.Kind())
		}
		body[k.Key] = v.Interface()
	}
	code, _ := postBody(t, hs.URL, text, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit with every knob: %d, want 202", code)
	}

	body["netlist"] = text
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	var req SubmitRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req.Config, want) {
		t.Errorf("decoded config %+v, want %+v", req.Config, want)
	}
	again, err := json.Marshal(SubmitRequest{Netlist: text, Config: want})
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(raw) {
		t.Errorf("SubmitRequest encodes as %s, want %s", again, raw)
	}
}

// postBody posts a raw POST /jobs body: the netlist plus the given keys.
func postBody(t *testing.T, url, text string, keys map[string]any) (int, errorResponse) {
	t.Helper()
	body := map[string]any{"netlist": text, "max_iter": 3}
	for k, v := range keys {
		body[k] = v
	}
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er errorResponse
	_ = json.NewDecoder(resp.Body).Decode(&er)
	return resp.StatusCode, er
}
