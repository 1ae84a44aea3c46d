package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/netlist"
	"repro/internal/obsv"
	"repro/internal/place"
)

// SubmitRequest is the POST /jobs JSON body: the netlist, an optional
// deadline, and any knob of place.Knobs under its JSON key ("k",
// "max_iter", "cg_tol", ...), flat in one object. Omitted knobs keep
// their zero value, the engine default. Unknown keys and bad values are
// a 400.
type SubmitRequest struct {
	// Netlist ("netlist") is the design in text interchange format.
	Netlist string
	// DeadlineMS ("deadline_ms") bounds the job's wall time; on expiry
	// the job completes with its best placement so far and stop_reason
	// "deadline". 0 uses the server default.
	DeadlineMS int
	// Config carries the knobs; its hooks are not settable over HTTP.
	Config place.Config
}

// UnmarshalJSON decodes a POST /jobs body, routing every key other than
// netlist and deadline_ms through the knob table.
func (r *SubmitRequest) UnmarshalJSON(b []byte) error {
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(b, &fields); err != nil {
		return err
	}
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys) // report the same bad key on every decode
	for _, k := range keys {
		var err error
		switch k {
		case "netlist":
			err = json.Unmarshal(fields[k], &r.Netlist)
		case "deadline_ms":
			err = json.Unmarshal(fields[k], &r.DeadlineMS)
		default:
			err = r.Config.SetKnob(k, fields[k])
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// MarshalJSON encodes the body UnmarshalJSON reads: zero knobs and a
// zero deadline are omitted.
func (r SubmitRequest) MarshalJSON() ([]byte, error) {
	m := r.Config.KnobValues()
	m["netlist"] = r.Netlist
	if r.DeadlineMS != 0 {
		m["deadline_ms"] = r.DeadlineMS
	}
	return json.Marshal(m)
}

// SubmitResponse is the POST /jobs success body.
type SubmitResponse struct {
	ID string `json:"id"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP API:
//
//	POST /jobs                   submit (202, 400, 429 queue full, 503 draining);
//	                             honors an incoming W3C traceparent header and
//	                             returns this job's traceparent on the response
//	GET  /jobs                   all job statuses, submission order
//	GET  /jobs/{id}              one job's status
//	GET  /jobs/{id}/result       placed netlist, text format (409 until terminal)
//	GET  /jobs/{id}/events       per-iteration convergence stream (SSE; ?poll=1
//	                             for long-poll JSON batches; resume with
//	                             Last-Event-ID or ?from=N)
//	GET  /jobs/{id}/trace        the job's span tree as JSON
//	POST /jobs/{id}/cancel       cancel a queued or running job
//	GET  /healthz                service health (503 while draining)
//	GET  /metrics                Prometheus text encoding
//	GET  /debug/flightrecorder   recent anomaly bundles (404 when disabled)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("GET /metrics", s.reg)
	mux.Handle("GET /debug/flightrecorder", s.rec)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// The accept timer covers decode + netlist parse — the transport work
	// a trace would otherwise not see; Submit folds it into the span tree.
	sw := obsv.StartTimer()
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	nl, err := netlist.Read(strings.NewReader(req.Netlist))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad netlist: " + err.Error()})
		return
	}
	// A malformed traceparent degrades to a fresh trace, never to a 4xx:
	// observability must not fail requests.
	parent, _ := obsv.ParseTraceParent(r.Header.Get("traceparent"))
	job, err := s.Submit(JobRequest{
		Netlist:  nl,
		Config:   req.Config,
		Deadline: time.Duration(req.DeadlineMS) * time.Millisecond,
		Trace:    parent,
		Accept:   sw.Elapsed(),
	})
	switch {
	case err == nil:
		w.Header().Set("traceparent", job.TraceParent().String())
		writeJSON(w, http.StatusAccepted, SubmitResponse{ID: job.ID()})
	case err == ErrQueueFull:
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
	case err == ErrDraining:
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
	}
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("unknown job %q", r.PathValue("id"))})
	}
	return j, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	st := j.Status()
	if !st.State.Terminal() {
		writeJSON(w, http.StatusConflict, errorResponse{Error: fmt.Sprintf("job %s is %s; result not ready", j.ID(), st.State)})
		return
	}
	if st.State == StateFailed {
		writeJSON(w, http.StatusGone, errorResponse{Error: "job failed: " + st.Error})
		return
	}
	// Done and cancelled jobs both hold a legal (possibly partial)
	// placement — that is the point of the serving layer.
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := netlist.Write(w, j.Netlist()); err != nil {
		// Headers are gone; nothing better to do than log-by-status.
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.TraceTree())
}

// EventBatch is the long-poll (?poll=1) response of /jobs/{id}/events.
type EventBatch struct {
	Events []Event `json:"events"`
	// Next is the cursor to pass as ?from= on the next poll.
	Next int `json:"next"`
	// Done reports that the stream ended; the last event has Final set.
	Done bool `json:"done"`
}

// longPollWait bounds how long an empty ?poll=1 request parks before
// returning an empty batch (clients just poll again).
const longPollWait = 25 * time.Second

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			from = n
		}
	}
	// SSE reconnects resend the last delivered id; resume after it.
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 {
			from = n + 1
		}
	}
	if r.URL.Query().Get("poll") != "" {
		s.longPollEvents(w, r, j, from)
		return
	}
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		// A transport that cannot stream still gets the data: degrade to
		// one long-poll batch.
		s.longPollEvents(w, r, j, from)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		events, wake, done := j.Events(from)
		for _, e := range events {
			data, err := json.Marshal(e)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "id: %d\ndata: %s\n\n", e.Seq, data); err != nil {
				return // client went away
			}
			from = e.Seq + 1
		}
		if len(events) > 0 {
			fl.Flush()
		}
		if done {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-wake:
		}
	}
}

// longPollEvents waits (bounded) for at least one event past from and
// returns the batch as JSON; an empty batch after the wait bound is a
// normal response, not an error.
func (s *Server) longPollEvents(w http.ResponseWriter, r *http.Request, j *Job, from int) {
	ctx, cancel := context.WithTimeout(r.Context(), longPollWait)
	defer cancel()
	for {
		events, wake, done := j.Events(from)
		if len(events) > 0 || done {
			next := from
			if n := len(events); n > 0 {
				next = events[n-1].Seq + 1
			}
			writeJSON(w, http.StatusOK, EventBatch{Events: events, Next: next, Done: done})
			return
		}
		select {
		case <-ctx.Done():
			writeJSON(w, http.StatusOK, EventBatch{Events: []Event{}, Next: from})
			return
		case <-wake:
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	h := s.Health()
	code := http.StatusOK
	if h.Draining {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}
