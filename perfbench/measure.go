package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/events"
	"repro/internal/runstore"
)

// span is one timed call into a layer. Spans of one operation (a batch
// iteration or a served request) share Op; Parent is the ID of the span
// that caused it (0 for a root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) seconds() float64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out once the run ends.
// A nil *tracer records nothing, which is how untraced operations run.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a span whose call is still in progress.
type openSpan struct {
	t   *tracer
	id  int
	rec span
}

// open starts a span; close it when the call returns.
func (t *tracer) open(name string, op int, parent *openSpan) *openSpan {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	// IDs are reserved at open so children can name their parent before
	// the parent closes.
	t.spans = append(t.spans, span{})
	s := &openSpan{t: t, id: len(t.spans)}
	s.rec = span{ID: s.id, Parent: parent.ID(), Op: op, Name: name, Start: now.Sub(t.epoch).Seconds()}
	return s
}

// ID is the span's identifier, 0 for a nil span.
func (s *openSpan) ID() int {
	if s == nil {
		return 0
	}
	return s.id
}

func (s *openSpan) close() {
	if s == nil {
		return
	}
	s.t.record(s.id, s.rec, time.Now())
}

func (t *tracer) record(id int, rec span, end time.Time) {
	rec.End = end.Sub(t.epoch).Seconds()
	t.mu.Lock()
	t.spans[id-1] = rec
	t.mu.Unlock()
}

// add records an already finished interval measured elsewhere (the
// service's own run timestamps, say).
func (t *tracer) add(name string, op int, start, end time.Time) {
	if t == nil {
		return
	}
	s := t.open(name, op, nil)
	s.rec.Start = start.Sub(t.epoch).Seconds()
	t.record(s.id, s.rec, end)
}

// cellSink turns the scenario engine's RunStarted/RunCompleted events
// into one "scenario.cell" span per simulated cell, the calls into the
// registry runners.
func (t *tracer) cellSink(op int, parent *openSpan) events.Sink {
	if t == nil {
		return nil
	}
	var mu sync.Mutex
	started := map[string]*openSpan{}
	return func(ev events.Event) {
		switch e := ev.(type) {
		case events.RunStarted:
			s := t.open("scenario.cell", op, parent)
			mu.Lock()
			started[e.Cell] = s
			mu.Unlock()
		case events.RunCompleted:
			mu.Lock()
			s := started[e.Cell]
			delete(started, e.Cell)
			mu.Unlock()
			s.close()
		}
	}
}

// byName returns the finished spans called name, grouped by operation.
func (t *tracer) byName(name string) map[int][]span {
	out := map[int][]span{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Op] = append(out[s.Op], s)
		}
	}
	return out
}

// medianPerOp folds each operation's spans of one name with agg and
// returns the median over operations, 0 when no operation has such a
// span.
func (t *tracer) medianPerOp(name string, agg func([]span) float64) float64 {
	var vals []float64
	for _, ss := range t.byName(name) {
		vals = append(vals, agg(ss))
	}
	return median(vals)
}

func sumSeconds(ss []span) float64 {
	total := 0.0
	for _, s := range ss {
		total += s.seconds()
	}
	return total
}

func maxSeconds(ss []span) float64 {
	m := 0.0
	for _, s := range ss {
		m = math.Max(m, s.seconds())
	}
	return m
}

// write saves the spans as JSON under dir.
func (t *tracer) write(dir, name string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// timedStore wraps the run service's store and times every Append. All
// calls pass through unchanged; Durable, Runs, Stats and Close are the
// embedded store's own.
type timedStore struct {
	runstore.Store

	mu      sync.Mutex
	appends []timedAppend
}

// timedAppend is one Append: the run it recorded and how long it took.
type timedAppend struct {
	run string
	dur time.Duration
}

func (s *timedStore) Append(rec *runstore.Record) error {
	start := time.Now()
	err := s.Store.Append(rec)
	d := time.Since(start)
	s.mu.Lock()
	s.appends = append(s.appends, timedAppend{run: rec.ID, dur: d})
	s.mu.Unlock()
	return err
}

// of returns the durations of the appends recorded for the given runs.
func (s *timedStore) of(runs map[string]bool) []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []time.Duration
	for _, a := range s.appends {
		if runs[a.run] {
			out = append(out, a.dur)
		}
	}
	return out
}

// Runtime counters read from runtime/metrics.
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mAllocObjs  = "/gc/heap/allocs:objects"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mHeapLive   = "/gc/heap/live:bytes"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU   = "/cpu/classes/total:cpu-seconds"
	mIdleCPU    = "/cpu/classes/idle:cpu-seconds"
)

// runtimeStats is one reading of the runtime counters plus the
// process's CPU time.
type runtimeStats struct {
	allocBytes, allocObjs, gcCycles float64
	gcCPU, busyCPU                  float64
	processCPU                      time.Duration
}

func readRuntime() runtimeStats {
	samples := []metrics.Sample{
		{Name: mAllocBytes}, {Name: mAllocObjs}, {Name: mGCCycles},
		{Name: mGCCPU}, {Name: mTotalCPU}, {Name: mIdleCPU},
	}
	metrics.Read(samples)
	val := func(i int) float64 {
		v := samples[i].Value
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeStats{
		allocBytes: val(0),
		allocObjs:  val(1),
		gcCycles:   val(2),
		gcCPU:      val(3),
		busyCPU:    val(4) - val(5),
		processCPU: processCPU(),
	}
}

func (a runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{
		allocBytes: a.allocBytes - b.allocBytes,
		allocObjs:  a.allocObjs - b.allocObjs,
		gcCycles:   a.gcCycles - b.gcCycles,
		gcCPU:      a.gcCPU - b.gcCPU,
		busyCPU:    a.busyCPU - b.busyCPU,
		processCPU: a.processCPU - b.processCPU,
	}
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapPeak samples the live heap (as marked by the latest GC) every 5 ms
// until stopped. It keeps the largest reading since the last take, and
// the largest reading of each whole second.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}

	mu      sync.Mutex
	peak    float64
	second  float64
	seconds []float64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: mHeapLive}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		next := time.Now().Add(time.Second)
		for {
			metrics.Read(sample)
			live := float64(sample[0].Value.Uint64())
			h.mu.Lock()
			h.peak = math.Max(h.peak, live)
			h.second = math.Max(h.second, live)
			if now := time.Now(); now.After(next) {
				h.seconds = append(h.seconds, h.second)
				h.second = 0
				next = now.Add(time.Second)
			}
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// take returns the peak in bytes since the previous take.
func (h *heapPeak) take() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.peak
	h.peak = 0
	return p
}

// end stops the sampler and returns the peak of every whole second
// sampled, or the overall peak when the sampler ran less than a second.
func (h *heapPeak) end() []float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.seconds) == 0 {
		return []float64{h.second}
	}
	return h.seconds
}

// percentile interpolates linearly between the closest ranks.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return percentile(vals, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
