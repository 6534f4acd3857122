package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	dawningcloud "repro"
	"repro/internal/runstore"
	"repro/internal/scenario"
	"repro/internal/service/api"
)

// Served-stream load. The generator is open loop: request i is due at
// start + i/servedRate whatever happened to earlier requests, and its
// latency runs from that due time. servedRate is a quarter to a third
// of the rate the service sustains on the 2-CPU reference machine with
// two clients back to back (see README.md): higher rates let the
// machine's speed drift swing p90 more than the bound allows.
const (
	servedRate        = 3.5 // requests per second
	servedConns       = 2   // HTTP connections, and so requests in flight
	servedMinRequests = 100 // so p90 has at least ten samples beyond it
	servedSampleEvery = 25  // every 25th report is re-run locally and compared
	servedTimeout     = 120 * time.Second
)

// servedSeed is request i's spec seed: distinct per request, so every
// request is a new run and none is a dedup or cache hit. The default
// seed's first request is the built-in streaming-baseline.
func servedSeed(seed int64, i int) int64 { return 42 + seed*100_000 + int64(i) }

// warmSeed is outside every timed request's seed.
func warmSeed(seed int64) int64 { return servedSeed(seed, 99_999) }

// server is one in-process service: a durable run store, the engine
// over it and the HTTP API on a loopback listener.
type server struct {
	dir   string
	store runstore.Store
	timed *timedStore
	eng   *dawningcloud.Engine
	http  *httptest.Server
}

func startServer(dir string, trace bool) (*server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	store, err := runstore.Open(runstore.Options{Dir: dir})
	if err != nil {
		return nil, err
	}
	s := &server{dir: dir, store: store}
	var plugged runstore.Store = store
	if trace {
		s.timed = &timedStore{Store: store}
		plugged = s.timed
	}
	s.eng = dawningcloud.NewEngine(
		dawningcloud.WithServiceConfig(dawningcloud.ServiceConfig{Workers: runtime.NumCPU()}),
		dawningcloud.WithRunStore(plugged))
	s.http = httptest.NewServer(api.New(s.eng))
	return s, nil
}

func (s *server) close() error {
	s.http.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := errors.Join(s.eng.Shutdown(ctx), s.store.Close())
	return errors.Join(err, os.RemoveAll(s.dir))
}

// client drives the API the way a remote user would: submit, follow the
// event stream to run_finished, fetch the result.
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     servedConns,
		MaxIdleConnsPerHost: servedConns,
	}}}
}

// outcome is what one served request observed.
type outcome struct {
	id                         string
	due, sent, done            time.Time
	submit, fetch              time.Duration
	created, started, finished time.Time
	windows                    int
	firstWindow                time.Time
	reportJSON                 []byte
	text                       string
	tasks                      int
	err                        error
}

// runInfo is as much of the API's run JSON as the client reads.
type runInfo struct {
	ID       string     `json:"id"`
	Status   string     `json:"status"`
	Error    string     `json:"error"`
	Deduped  bool       `json:"deduped"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
	Result   *struct {
		Report json.RawMessage `json:"report"`
		Text   string          `json:"text"`
	} `json:"result"`
}

func (c *client) do(ctx context.Context, body []byte, wantWindows int, tr *tracer, op int) (o outcome) {
	o.sent = time.Now()
	fail := func(err error) outcome {
		o.err = err
		o.done = time.Now()
		return o
	}
	sp := tr.open("api.submit", op, nil)
	var sub runInfo
	code, err := c.call(ctx, http.MethodPost, "/v1/runs", body, &sub)
	sp.close()
	o.submit = time.Since(o.sent)
	if err != nil {
		return fail(err)
	}
	if code != http.StatusAccepted || sub.Deduped {
		return fail(fmt.Errorf("submit: status %d, deduped %v: want a new run", code, sub.Deduped))
	}
	o.id = sub.ID

	sp = tr.open("stream.events", op, nil)
	err = c.follow(ctx, sub.ID, &o)
	sp.close()
	if err != nil {
		return fail(err)
	}
	if o.windows != wantWindows {
		return fail(fmt.Errorf("run %s: %d window_report events, want %d", sub.ID, o.windows, wantWindows))
	}

	start := time.Now()
	sp = tr.open("api.result", op, nil)
	var got runInfo
	code, err = c.call(ctx, http.MethodGet, "/v1/runs/"+sub.ID, nil, &got)
	sp.close()
	o.done = time.Now()
	o.fetch = o.done.Sub(start)
	if err != nil {
		return fail(err)
	}
	if code != http.StatusOK || got.Status != "done" || got.Result == nil || got.Started == nil || got.Finished == nil {
		return fail(fmt.Errorf("run %s: status %d %q %s: want a finished result", sub.ID, code, got.Status, got.Error))
	}
	o.created, o.started, o.finished = got.Created, *got.Started, *got.Finished
	o.reportJSON, o.text = got.Result.Report, got.Result.Text
	var rep scenario.Report
	if err := json.Unmarshal(o.reportJSON, &rep); err != nil {
		return fail(fmt.Errorf("run %s: decode report: %w", sub.ID, err))
	}
	if err := checkReport(&rep); err != nil {
		return fail(fmt.Errorf("run %s: %w", sub.ID, err))
	}
	o.tasks = tasksSimulated(&rep)
	tr.add("service.queue_wait", op, o.created, o.started)
	tr.add("service.exec", op, o.started, o.finished)
	return o
}

// call sends one request and decodes the JSON reply into into.
func (c *client) call(ctx context.Context, method, path string, body []byte, into any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: decode reply: %w", method, path, err)
	}
	return resp.StatusCode, nil
}

// follow reads the run's NDJSON event stream to run_finished, counting
// window reports and noting when the first one arrived.
func (c *client) follow(ctx context.Context, id string, o *outcome) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/runs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events %s: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		var ev struct {
			Type   string `json:"type"`
			Status string `json:"status"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("events %s: %w", id, err)
		}
		switch ev.Type {
		case "window_report":
			if o.windows == 0 {
				o.firstWindow = time.Now()
			}
			o.windows++
		case "run_finished":
			if ev.Status != "done" {
				return fmt.Errorf("run %s finished %s", id, ev.Status)
			}
			// Drain the rest so the connection is reused.
			_, err := io.Copy(io.Discard, resp.Body)
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("events %s: %w", id, err)
	}
	return fmt.Errorf("events %s: stream ended before run_finished", id)
}

// servedLayers are the service-side per-layer readings; zero on the
// batch workloads, which do not use the service.
type servedLayers struct {
	submit, queueWait, exec, fetch, firstWindow, appends, late []float64
	dedupHits, appendsPerRun, inflightMax                      float64
	samples                                                    int
}

func addServiceLayers(res *result, s servedLayers) {
	res.add("api.submit_ms.p50", percentile(s.submit, 0.5), "ms")
	res.add("api.submit_ms.p90", percentile(s.submit, 0.9), "ms")
	res.add("service.queue_wait_ms.p50", percentile(s.queueWait, 0.5), "ms")
	res.add("service.queue_wait_ms.p90", percentile(s.queueWait, 0.9), "ms")
	res.add("service.exec_ms.p50", percentile(s.exec, 0.5), "ms")
	res.add("service.exec_ms.p90", percentile(s.exec, 0.9), "ms")
	res.add("api.result_ms.p50", percentile(s.fetch, 0.5), "ms")
	res.add("api.result_ms.p90", percentile(s.fetch, 0.9), "ms")
	res.add("service.dedup_hits", s.dedupHits, "count")
	res.add("stream.first_window_ms", median(s.firstWindow), "ms")
	res.add("runstore.append_ms.p50", percentile(s.appends, 0.5), "ms")
	res.add("runstore.append_ms.p90", percentile(s.appends, 0.9), "ms")
	res.add("runstore.appends_per_run", s.appendsPerRun, "count")
	res.add("loadgen.late_p90_ms", percentile(s.late, 0.9), "ms")
	res.add("loadgen.inflight_max", s.inflightMax, "count")
	res.add("loadgen.samples", float64(s.samples), "count")
}

// runServed measures POST to done over HTTP: an open-loop stream of
// distinct streaming-baseline specs against an in-process durable
// service.
func runServed(o options) (*result, error) {
	ctx := context.Background()
	days := 0
	requests := int(math.Ceil(o.rate * o.seconds))
	if o.tiny {
		days = 1
	} else {
		requests = max(requests, servedMinRequests)
	}
	bodies := make([][]byte, requests)
	specs := make([][]byte, requests)
	for i := range bodies {
		spec, err := generateSpec("streaming-baseline", servedSeed(o.seed, i), days)
		if err != nil {
			return nil, err
		}
		specs[i] = spec
		if bodies[i], err = submitBody(spec); err != nil {
			return nil, err
		}
	}
	var wantWindows int
	{
		spec, err := scenario.ParseBytes(specs[0])
		if err != nil {
			return nil, err
		}
		wantWindows = spec.Days * len(spec.Systems)
	}
	warmSpec, err := generateSpec("streaming-baseline", warmSeed(o.seed), days)
	if err != nil {
		return nil, err
	}
	warmBody, err := submitBody(warmSpec)
	if err != nil {
		return nil, err
	}

	// Set-up: open the store, start engine and server, and serve one
	// warm-up request; done setupRepeats times, keeping the last.
	var srv *server
	var cl *client
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		if srv != nil {
			if err := srv.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		dir := filepath.Join(scratchDir, fmt.Sprintf("served-%d-%d", os.Getpid(), k))
		if srv, err = startServer(dir, o.trace); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		cl = newClient(srv.http.URL)
		if w := cl.do(ctx, warmBody, wantWindows, nil, -1); w.err != nil {
			srv.close()
			return nil, fmt.Errorf("set-up: warm-up request: %w", w.err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	// The store holds only this run's throwaway runs, so a failed close
	// loses nothing.
	defer srv.close()

	// Timed phase: the open-loop generator hands request indices to
	// servedConns clients; a client that is free when a request falls due
	// sends it then, otherwise as soon as it frees up (late).
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	runCtx, cancel := context.WithTimeout(ctx, servedTimeout)
	defer cancel()
	statsBefore := srv.eng.ServiceStats()
	before := readRuntime()
	peak := startHeapPeak()
	begin := time.Now()
	outcomes := make([]outcome, requests)
	var inflight, inflightMax atomic.Int64
	next := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < servedConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				due := begin.Add(time.Duration(float64(i) / o.rate * float64(time.Second)))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				n := inflight.Add(1)
				for m := inflightMax.Load(); n > m && !inflightMax.CompareAndSwap(m, n); m = inflightMax.Load() {
				}
				// Even requests are traced, odd ones are not, so a traced
				// run also measures what tracing costs.
				var rtr *tracer
				if i%2 == 0 {
					rtr = tr
				}
				out := cl.do(runCtx, bodies[i], wantWindows, rtr, i)
				inflight.Add(-1)
				out.due = due
				outcomes[i] = out
			}
		}()
	}
	for i := 0; i < requests; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	wall := time.Since(begin)
	// Runs overlap, so the heap is read per second of the timed phase
	// and the median second reported.
	peaks := peak.end()
	delta := readRuntime().sub(before)
	statsAfter := srv.eng.ServiceStats()

	res := &result{}
	var layers servedLayers
	var latency, traced, untraced []float64
	tasks, ok := 0, 0
	runs := map[string]bool{} // IDs of the runs that completed
	for i := range outcomes {
		out := &outcomes[i]
		res.attempted++
		if out.err == nil && i == 0 {
			var compact bytes.Buffer
			if err := json.Compact(&compact, out.reportJSON); err != nil {
				out.err = err
			} else {
				res.digest = digest(compact.Bytes())
				if o.seed == defaultSeed {
					out.err = checkDigest(digestKey(o.workload, o.tiny), compact.Bytes())
				}
			}
		}
		if out.err == nil && i%servedSampleEvery == 0 {
			local, err := pipeline(ctx, specs[i], 1, tr, requests+i)
			if err == nil {
				err = sameOutput(out.reportJSON, out.text, local)
			}
			out.err = err
		}
		if out.err != nil {
			res.fail(fmt.Errorf("request %d: %w", i, out.err))
			continue
		}
		ok++
		tasks += out.tasks
		runs[out.id] = true
		lat := ms(out.done.Sub(out.due))
		latency = append(latency, lat)
		if i%2 == 0 {
			traced = append(traced, lat)
		} else {
			untraced = append(untraced, lat)
		}
		layers.submit = append(layers.submit, ms(out.submit))
		layers.fetch = append(layers.fetch, ms(out.fetch))
		layers.queueWait = append(layers.queueWait, ms(out.started.Sub(out.created)))
		layers.exec = append(layers.exec, ms(out.finished.Sub(out.started)))
		layers.firstWindow = append(layers.firstWindow, ms(out.firstWindow.Sub(out.started)))
		layers.late = append(layers.late, ms(out.sent.Sub(out.due)))
	}
	res.samples = ok
	hits := (statsAfter.Deduped - statsBefore.Deduped) + (statsAfter.CacheHits - statsBefore.CacheHits)
	if hits != 0 {
		res.invalid(fmt.Errorf("service.dedup_hits = %d: the run measured the result cache, not runs", hits))
	}

	if !o.trace {
		res.add("setup_s", median(setups), "s")
		res.add("tasks_per_s", float64(tasks)/wall.Seconds(), "1/s")
		res.add("alloc_bytes_per_task", perTask(delta.allocBytes, tasks), "B/task")
		res.add("allocs_per_task", perTask(delta.allocObjs, tasks), "allocs/task")
		res.add("peak_heap_mb", median(peaks)/(1<<20), "MB")
		res.add("serve_p50_ms", percentile(latency, 0.5), "ms")
		res.add("serve_p90_ms", percentile(latency, 0.9), "ms")
		res.add("serve_cpu_ms_per_run", perOp(float64(delta.processCPU)/1e6, ok), "ms")
		return res, nil
	}

	layers.dedupHits = float64(hits)
	appends := srv.timed.of(runs)
	layers.appends = millis(appends)
	layers.appendsPerRun = perOp(float64(len(appends)), ok)
	layers.inflightMax = float64(inflightMax.Load())
	layers.samples = ok

	spec, err := scenario.ParseBytes(specs[0])
	if err != nil {
		return nil, err
	}
	standalone, err := standaloneCompileParts(spec)
	if err != nil {
		return nil, err
	}
	addPipelineLayers(res, tr, standalone)
	addRuntimeLayers(res, delta, ok)
	addServiceLayers(res, layers)
	res.add("trace.overhead_frac", overhead(traced, untraced), "ratio")
	return res, tr.write(traceDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
}

// submitBody is the POST /v1/runs body for a spec: one worker per run,
// so the service's workers bound the CPUs in use.
func submitBody(spec []byte) ([]byte, error) {
	return json.Marshal(map[string]any{"scenario_spec": json.RawMessage(spec), "workers": 1})
}
