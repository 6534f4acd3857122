// Package api is the HTTP/JSON facade of the run service: the handler
// behind cmd/dcserve, kept importable (examples/service drives it
// in-process) and testable without a network listener.
//
// Endpoints:
//
//	POST   /v1/runs             submit a run (scenario, system or suite request)
//	GET    /v1/runs             list stored runs + service stats
//	                            (?status= filter, ?limit=/?cursor= pagination)
//	GET    /v1/runs/{id}        one run's status, and its result when done
//	GET    /v1/runs/{id}/events typed event stream (NDJSON; SSE via Accept)
//	POST   /v1/runs/{id}/tasks  NDJSON task ingestion into a live-fed run
//	DELETE /v1/runs/{id}        cancel the run
//	GET    /v1/scenarios        list built-in scenarios
//	GET    /healthz             liveness + service stats
//
// Submissions deduplicate by content through the engine: identical
// specs share one run (equal IDs, one execution), observable via the
// deduped flag and the cache-hit counters in /healthz.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	dawningcloud "repro"
	"repro/internal/events"
	"repro/internal/job"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/synth"
)

// Server handles the dcserve HTTP API over an engine's run service.
// Construct with New; it implements http.Handler.
type Server struct {
	eng     *dawningcloud.Engine
	mux     *http.ServeMux
	started time.Time
	ping    time.Duration

	logMu sync.Mutex
	log   io.Writer
}

// Option configures a Server.
type Option func(*Server)

// WithLog writes one access-log line per handled request (method,
// path, status, elapsed) to w; nil disables logging.
func WithLog(w io.Writer) Option {
	return func(s *Server) { s.log = w }
}

// WithPingInterval sets how often an idle SSE event stream emits a
// ": ping" keep-alive comment so proxies and idle timeouts do not drop
// long-stalled live streams (default 15s; <= 0 disables pings). NDJSON
// streams are never pinged — a comment line would corrupt them.
func WithPingInterval(d time.Duration) Option {
	return func(s *Server) { s.ping = d }
}

// New builds the API handler over eng. The engine owns the run
// lifecycle: configure queue depth, workers and TTL via
// dawningcloud.WithServiceConfig when constructing it, and call
// eng.Shutdown for graceful termination.
func New(eng *dawningcloud.Engine, opts ...Option) *Server {
	s := &Server{eng: eng, mux: http.NewServeMux(), started: time.Now(), ping: 15 * time.Second}
	for _, o := range opts {
		o(s)
	}
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/runs", s.handleList)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("POST /v1/runs/{id}/tasks", s.handleTasks)
	s.mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// accessRecorder captures the response status for the access log.
type accessRecorder struct {
	http.ResponseWriter
	status int
}

func (a *accessRecorder) WriteHeader(code int) {
	a.status = code
	a.ResponseWriter.WriteHeader(code)
}

func (a *accessRecorder) Flush() {
	if f, ok := a.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.log == nil {
		s.mux.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	rec := &accessRecorder{ResponseWriter: w, status: http.StatusOK}
	s.mux.ServeHTTP(rec, r)
	s.logMu.Lock()
	defer s.logMu.Unlock()
	fmt.Fprintf(s.log, "dcserve: %s %s -> %d (%.0fms)\n",
		r.Method, r.URL.Path, rec.status, time.Since(start).Seconds()*1000)
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// submitBody is the POST /v1/runs request union, mirroring
// dawningcloud.SubmitRequest for remote callers. Exactly one of
// scenario, scenario_spec, system or experiments selects the form.
type submitBody struct {
	// Scenario names a built-in scenario (see GET /v1/scenarios).
	Scenario string `json:"scenario,omitempty"`
	// ScenarioSpec is an inline scenario spec document (the dcscen
	// format), validated like a spec file.
	ScenarioSpec json.RawMessage `json:"scenario_spec,omitempty"`

	// System runs one registered system over a built-in workload.
	System string `json:"system,omitempty"`
	// Workload is the built-in workload for a system run: "nasa",
	// "blue" or "montage".
	Workload string `json:"workload,omitempty"`
	// B and R override the DawningCloud policy knobs (0 keeps the
	// workload's paper defaults).
	B int     `json:"b,omitempty"`
	R float64 `json:"r,omitempty"`
	// Capacity bounds the cloud pool (0 = unconstrained).
	Capacity int `json:"capacity,omitempty"`

	// Experiments requests paper-evaluation artifacts by ID ("all",
	// "extensions", "table2", ...).
	Experiments []string `json:"experiments,omitempty"`

	// Seed and Days configure workload generation for system and
	// experiments requests (defaults 42 and 14).
	Seed int64 `json:"seed,omitempty"`
	Days int   `json:"days,omitempty"`
	// Workers bounds the run's inner simulation concurrency
	// (0 = all CPUs).
	Workers int `json:"workers,omitempty"`
}

// links are the hypermedia pointers on submit/list responses.
type links struct {
	Self   string `json:"self"`
	Events string `json:"events"`
}

func runLinks(id string) links {
	return links{
		Self:   "/v1/runs/" + id,
		Events: "/v1/runs/" + id + "/events",
	}
}

// submitResponse acknowledges a submission.
type submitResponse struct {
	ID      string                 `json:"id"`
	Status  dawningcloud.RunStatus `json:"status"`
	Kind    string                 `json:"kind"`
	Label   string                 `json:"label"`
	Deduped bool                   `json:"deduped"`
	Links   links                  `json:"links"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var req submitBody
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "parse request: %v", err)
		return
	}
	sub, opts, err := s.buildSubmit(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	h, err := s.eng.Submit(r.Context(), sub, opts...)
	switch {
	case err == nil:
	case errors.Is(err, dawningcloud.ErrBusy):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case errors.Is(err, dawningcloud.ErrShutdown):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	code := http.StatusAccepted
	if h.Deduped() {
		// The work already exists (in flight or cached): not a new
		// resource.
		code = http.StatusOK
	}
	writeJSON(w, code, submitResponse{
		ID:      h.ID(),
		Status:  h.Status(),
		Kind:    h.Kind(),
		Label:   h.Label(),
		Deduped: h.Deduped(),
		Links:   runLinks(h.ID()),
	})
}

// buildSubmit lowers the wire request to the engine's union.
func (s *Server) buildSubmit(req submitBody) (dawningcloud.SubmitRequest, []dawningcloud.RunOption, error) {
	forms := 0
	if req.Scenario != "" {
		forms++
	}
	if len(req.ScenarioSpec) > 0 {
		forms++
	}
	if req.System != "" {
		forms++
	}
	if len(req.Experiments) > 0 {
		forms++
	}
	if forms != 1 {
		return dawningcloud.SubmitRequest{}, nil, fmt.Errorf(
			"exactly one of scenario, scenario_spec, system or experiments must be set (got %d)", forms)
	}
	opts := []dawningcloud.RunOption{dawningcloud.WithWorkers(req.Workers)}
	switch {
	case req.Scenario != "":
		spec, err := dawningcloud.LoadScenario(req.Scenario)
		if err != nil {
			return dawningcloud.SubmitRequest{}, nil, err
		}
		return dawningcloud.SubmitRequest{Scenario: spec}, opts, nil
	case len(req.ScenarioSpec) > 0:
		spec, err := dawningcloud.ParseScenario(req.ScenarioSpec)
		if err != nil {
			return dawningcloud.SubmitRequest{}, nil, err
		}
		return dawningcloud.SubmitRequest{Scenario: spec}, opts, nil
	case req.System != "":
		wl, horizon, err := builtinWorkload(req)
		if err != nil {
			return dawningcloud.SubmitRequest{}, nil, err
		}
		opts = append(opts,
			dawningcloud.WithOptions(dawningcloud.Options{
				Horizon:      horizon,
				PoolCapacity: req.Capacity,
			}),
			dawningcloud.WithSeed(seedOrDefault(req.Seed)))
		return dawningcloud.SubmitRequest{
			System:    req.System,
			Workloads: []dawningcloud.Workload{wl},
		}, opts, nil
	default:
		return dawningcloud.SubmitRequest{
			Experiments: req.Experiments,
			Seed:        req.Seed,
			Days:        req.Days,
		}, opts, nil
	}
}

func seedOrDefault(seed int64) int64 {
	if seed == 0 {
		return 42
	}
	return seed
}

// builtinWorkload mirrors dcsim's built-in workload vocabulary for
// remote system runs.
func builtinWorkload(req submitBody) (dawningcloud.Workload, int64, error) {
	seed := seedOrDefault(req.Seed)
	days := req.Days
	if days == 0 {
		days = 14
	}
	horizon := int64(days) * sim.Day
	var wl dawningcloud.Workload
	switch req.Workload {
	case "nasa":
		model := synth.NASAiPSC(seed)
		model.Days = days
		jobs, err := model.Generate()
		if err != nil {
			return dawningcloud.Workload{}, 0, err
		}
		wl = dawningcloud.Workload{
			Name: "nasa-htc", Class: job.HTC, Jobs: jobs,
			FixedNodes: 128, Params: dawningcloud.HTCPolicy(40, 1.2),
		}
	case "blue":
		model := synth.SDSCBlue(seed)
		model.Days = days
		jobs, err := model.Generate()
		if err != nil {
			return dawningcloud.Workload{}, 0, err
		}
		wl = dawningcloud.Workload{
			Name: "blue-htc", Class: job.HTC, Jobs: jobs,
			FixedNodes: 144, Params: dawningcloud.HTCPolicy(80, 1.5),
		}
	case "montage":
		var err error
		wl, err = dawningcloud.MontageWorkload(seed, 0)
		if err != nil {
			return dawningcloud.Workload{}, 0, err
		}
		horizon = 0 // derive from the workflow, as dcsim does
	default:
		return dawningcloud.Workload{}, 0, fmt.Errorf(
			"unknown workload %q (known: nasa, blue, montage)", req.Workload)
	}
	if req.B > 0 {
		wl.Params.InitialNodes = req.B
	}
	if req.R > 0 {
		wl.Params.ThresholdRatio = req.R
	}
	return wl, horizon, nil
}

// listResponse is GET /v1/runs.
type listResponse struct {
	Runs  []runListEntry            `json:"runs"`
	Stats dawningcloud.ServiceStats `json:"stats"`
	// NextCursor is set when ?limit= truncated the listing: pass it
	// back as ?cursor= to continue from the next run.
	NextCursor string `json:"next_cursor,omitempty"`
}

type runListEntry struct {
	dawningcloud.RunInfo
	Links links `json:"links"`
}

// handleList serves GET /v1/runs: the stored runs newest first, plus
// service stats. Query parameters:
//
//	?status=  keep only runs in that lifecycle state ("queued",
//	          "running", "done", "failed", "canceled", "dead_letter")
//	?limit=   page size; the response carries next_cursor while more
//	          runs remain
//	?cursor=  resume a paged listing after the run ID a previous
//	          response returned in next_cursor
//
// With no parameters the full list comes back in one response, exactly
// as before pagination existed.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var filter *dawningcloud.RunStatus
	if v := q.Get("status"); v != "" {
		st, err := dawningcloud.ParseRunStatus(v)
		if err != nil {
			writeError(w, http.StatusBadRequest,
				"unknown status %q (known: queued, running, done, failed, canceled, dead_letter)", v)
			return
		}
		filter = &st
	}
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "limit must be a positive integer, got %q", v)
			return
		}
		limit = n
	}
	var handles []*dawningcloud.RunHandle
	if cursor := q.Get("cursor"); cursor != "" {
		// Resolved via the service's ID index — O(log n) per page — so a
		// full paged listing over a large durable store stays linear
		// instead of rescanning every handle per page.
		var ok bool
		handles, ok = s.eng.HandlesBefore(cursor)
		if !ok {
			// Evicted mid-pagination or plain wrong: fail loudly instead
			// of silently restarting the client from page one.
			writeError(w, http.StatusBadRequest, "unknown or expired cursor %q", cursor)
			return
		}
	} else {
		handles = s.eng.Handles()
	}
	resp := listResponse{Runs: []runListEntry{}, Stats: s.eng.ServiceStats()}
	for _, h := range handles {
		info := h.Snapshot()
		if filter != nil && info.Status != *filter {
			continue
		}
		if limit > 0 && len(resp.Runs) >= limit {
			// One more match exists beyond the page: hand the client a
			// resume point. A page that exactly exhausts the list carries
			// no cursor.
			resp.NextCursor = resp.Runs[len(resp.Runs)-1].ID
			break
		}
		resp.Runs = append(resp.Runs, runListEntry{RunInfo: info, Links: runLinks(h.ID())})
	}
	writeJSON(w, http.StatusOK, resp)
}

// runResponse is GET /v1/runs/{id}: the snapshot plus, when done, the
// kind-shaped result ({"report", "text"} for scenarios, {"system"} for
// system runs, {"artifacts"} for suite runs).
type runResponse struct {
	dawningcloud.RunInfo
	Links  links `json:"links"`
	Result any   `json:"result,omitempty"`
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	h, ok := s.eng.Handle(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown run %q", r.PathValue("id"))
		return
	}
	resp := runResponse{RunInfo: h.Snapshot(), Links: runLinks(h.ID())}
	// ?result=0 keeps status polls O(1); the result view itself is
	// rendered at most once per run (memoized), not once per poll.
	if resp.Status == dawningcloud.RunStatusDone && r.URL.Query().Get("result") != "0" {
		resp.Result = h.ResultView(func(res dawningcloud.RunResult) any {
			switch h.Kind() {
			case "scenario":
				return map[string]any{
					"report": res.Report,
					"text":   res.Report.Render(),
				}
			case "suite":
				return map[string]any{"artifacts": res.Artifacts}
			default:
				return map[string]any{"system": res.Result}
			}
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	h, ok := s.eng.Handle(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown run %q", r.PathValue("id"))
		return
	}
	// A deduplicated run is shared work: letting one submitter cancel it
	// would destroy every other tenant's study mid-flight. The
	// check-and-cancel is atomic in the service, so a submission joining
	// concurrently cannot slip between the two.
	if !h.CancelIfSole() {
		writeError(w, http.StatusConflict,
			"run %s is shared by %d submissions; refusing to cancel shared work", h.ID(), h.Submissions())
		return
	}
	writeJSON(w, http.StatusAccepted, runResponse{RunInfo: h.Snapshot(), Links: runLinks(h.ID())})
}

// handleEvents streams the run's typed events: replay first, then live,
// ending when the run is terminal (the last line is run_finished). The
// default wire format is NDJSON — one events.Wire object per line —
// or SSE when the client asks with Accept: text/event-stream.
// ?follow=0 dumps only the events buffered so far and closes.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	h, ok := s.eng.Handle(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown run %q", r.PathValue("id"))
		return
	}
	follow := r.URL.Query().Get("follow") != "0"
	limit := -1
	if !follow {
		limit = h.Snapshot().Events
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	// Idle SSE followers get periodic ": ping" comment lines so proxies
	// and idle timeouts keep long-stalled live streams open (a live-fed
	// run can legitimately sit eventless while it waits for tasks). SSE
	// clients ignore comment lines by spec; NDJSON streams are never
	// pinged because every line must be an event object.
	var ping <-chan time.Time
	if sse && follow && s.ping > 0 {
		t := time.NewTicker(s.ping)
		defer t.Stop()
		ping = t.C
	}
	ch := h.Events(r.Context())
	n := 0
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return
			}
			wire := events.Encode(ev)
			if sse {
				fmt.Fprintf(w, "event: %s\ndata: ", wire.Type)
			}
			if err := enc.Encode(wire); err != nil {
				return // client went away
			}
			if sse {
				io.WriteString(w, "\n")
			}
			if flusher != nil {
				flusher.Flush()
			}
			n++
			if limit >= 0 && n >= limit {
				return
			}
		case <-ping:
			if _, err := io.WriteString(w, ": ping\n\n"); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
}

// taskResponse is the POST /v1/runs/{id}/tasks result body: how many
// records were accepted (also on errors — the client's resume point),
// and whether every live lane has received its end-of-stream record.
type taskResponse struct {
	Accepted int    `json:"accepted"`
	Closed   bool   `json:"closed"`
	Error    string `json:"error,omitempty"`
}

// handleTasks ingests NDJSON task records (stream.TaskRecord lines, read
// by stream.TaskReader) into a live-fed run's task feed. Validation is
// strict and per record — oversized lines, unknown fields, structural
// problems and submit-order violations reject with 400 naming the
// offending record — and backpressure is explicit:
// a full lane buffer answers 503 with Retry-After, and the accepted
// count in the body tells the client where to resume. The explicit
// end-of-stream record {"end":true} closes the lane(s); without it the
// run keeps waiting, since the virtual clock cannot prove no earlier
// task is still coming.
func (s *Server) handleTasks(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.eng.Handle(id); !ok {
		writeError(w, http.StatusNotFound, "unknown run %q", id)
		return
	}
	feed, ok := s.eng.Feed(id)
	if !ok {
		writeError(w, http.StatusConflict,
			"run %s takes no tasks (only non-terminal runs of scenarios with live providers do)", id)
		return
	}
	tasks := stream.NewTaskReader(r.Body)
	accepted := 0
	fail := func(code int, format string, args ...any) {
		writeJSON(w, code, taskResponse{
			Accepted: accepted,
			Closed:   feed.Closed(),
			Error:    fmt.Sprintf(format, args...),
		})
	}
	for {
		rec, err := tasks.Next()
		if err == io.EOF {
			break
		} else if err != nil {
			fail(http.StatusBadRequest, "%v", err)
			return
		}
		line := tasks.Record()
		if rec.End {
			if err := closeLanes(feed, rec.Workload); err != nil {
				fail(http.StatusBadRequest, "record %d: %v", line, err)
				return
			}
			continue
		}
		src, err := feed.Get(rec.Workload)
		if err != nil {
			fail(http.StatusBadRequest, "record %d: %v", line, err)
			return
		}
		switch err := src.TryPush(rec.Job()); {
		case err == nil:
			accepted++
		case errors.Is(err, stream.ErrFull):
			// The run's virtual clock is gating on a slower consumer;
			// shed the rest of the request and have the client retry from
			// the accepted count.
			w.Header().Set("Retry-After", "1")
			fail(http.StatusServiceUnavailable, "record %d: %v", line, err)
			return
		default:
			fail(http.StatusBadRequest, "record %d: %v", line, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, taskResponse{Accepted: accepted, Closed: feed.Closed()})
}

// closeLanes ends the named lane, or every lane when the end record
// names none.
func closeLanes(feed *dawningcloud.LiveFeed, workload string) error {
	if workload == "" && len(feed.Names()) > 1 {
		feed.CloseAll()
		return nil
	}
	src, err := feed.Get(workload)
	if err != nil {
		return err
	}
	return src.Close()
}

// scenarioEntry is one built-in scenario in GET /v1/scenarios.
type scenarioEntry struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Providers   int    `json:"providers"`
	Days        int    `json:"days"`
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	names := dawningcloud.ScenarioNames()
	entries := make([]scenarioEntry, 0, len(names))
	for _, name := range names {
		spec, err := dawningcloud.LoadScenario(name)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		entries = append(entries, scenarioEntry{
			Name:        name,
			Description: spec.Description,
			Providers:   len(spec.ExpandedNames()),
			Days:        spec.Days,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"scenarios": entries})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": int64(time.Since(s.started).Seconds()),
		"stats":          s.eng.ServiceStats(),
	})
}
