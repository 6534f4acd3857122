package scenario

import (
	"fmt"
	"sync"

	"repro/internal/csf"
	"repro/internal/events"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/systems"
)

// feed builds the cell's streamed-run configuration, nil unless the spec
// is streamed: live providers draw from their attached sources as kernel
// lanes, every other workload attaches materialized, and base cells
// carry the read-only per-window reporter. Results are
// byte-identical to the materialized path for the same jobs, so the
// cache key and the report shape do not change.
func (e *engine) feed(c cell) (*systems.Feed, error) {
	if !e.c.Spec.Streamed() {
		return nil, nil
	}
	feed := &systems.Feed{Window: e.windows.window}
	if len(e.c.Live) > 0 {
		// Spec validation pins live scenarios to a single system with no
		// sweeps, so exactly one cell — this one — consumes the feeds.
		feed.Sources = make(map[string]stream.Source, len(e.c.Live))
		for _, name := range e.c.Live {
			src, ok := e.c.Sources[name]
			if !ok {
				return nil, fmt.Errorf("scenario %s: live provider %q has no attached source (fill Compiled.Sources before running)",
					e.c.Spec.Name, name)
			}
			feed.Sources[name] = src
		}
	}
	if c.grid == nil && c.providers == len(e.c.Workloads) {
		feed.OnWindow = e.windows.reporter(c.system, c.key())
	}
	return feed, nil
}

// windowEmitter coordinates a streamed scenario's incremental results:
// each base cell's reporter emits one WindowReport per accounting
// window, and once every compared system has reported a window the
// emitter closes it with the cross-system WindowSummary — the running
// economies-of-scale line. Window contents are deterministic (they read
// the virtual clock); only the wall-clock interleaving of reports
// across concurrently running systems varies, and summaries always
// arrive in window order.
type windowEmitter struct {
	sink    events.Sink
	window  sim.Time
	setup   float64
	systems []string

	mu      sync.Mutex
	reports map[int]map[string]events.WindowReport
	next    int
}

func newWindowEmitter(spec *Spec, opts systems.Options, sink events.Sink) *windowEmitter {
	window := sim.Time(spec.Stream.WindowSeconds)
	if window <= 0 {
		window = sim.Day
	}
	setup := opts.SetupCost
	if setup == 0 {
		setup = csf.DefaultNodeSetupSeconds
	}
	return &windowEmitter{
		sink:    sink,
		window:  window,
		setup:   setup,
		systems: append([]string(nil), spec.Systems...),
		reports: make(map[int]map[string]events.WindowReport),
	}
}

// reporter turns a streamed run's window snapshots into one system's
// WindowReports. Snapshots are taken before any other event at each
// boundary, so a report covers [start, end) exactly, and since they
// only read, the simulation stays byte-identical to the unobserved run.
func (w *windowEmitter) reporter(system, cellKey string) func(int, sim.Time, sim.Time, []systems.ProviderWindow) {
	return func(i int, start, end sim.Time, rows []systems.ProviderWindow) {
		rep := events.WindowReport{
			System: system,
			Cell:   cellKey,
			Index:  i,
			Start:  int64(start),
			End:    int64(end),
		}
		adjusted := 0
		for _, pw := range rows {
			rep.Providers = append(rep.Providers, pw.Name)
			rep.Completed = append(rep.Completed, pw.Completed)
			rep.NodeHours = append(rep.NodeHours, pw.NodeHours)
			rep.Adjusted = append(rep.Adjusted, pw.Adjusted)
			rep.TotalNodeHours += pw.NodeHours
			adjusted += pw.Adjusted
		}
		rep.OverheadSeconds = float64(adjusted) * w.setup
		w.sink.Emit(rep)
		w.add(rep)
	}
}

// add files one system's report and emits every window that became
// complete, in index order.
func (w *windowEmitter) add(rep events.WindowReport) {
	w.mu.Lock()
	defer w.mu.Unlock()
	m := w.reports[rep.Index]
	if m == nil {
		m = make(map[string]events.WindowReport, len(w.systems))
		w.reports[rep.Index] = m
	}
	m[rep.System] = rep
	for {
		done, ok := w.reports[w.next]
		if !ok || len(done) < len(w.systems) {
			return
		}
		sum := events.WindowSummary{Index: w.next}
		for _, system := range w.systems {
			r := done[system]
			sum.Start, sum.End = r.Start, r.End
			sum.Systems = append(sum.Systems, system)
			sum.TotalNodeHours = append(sum.TotalNodeHours, r.TotalNodeHours)
		}
		if dsp, ok := done["DawningCloud"]; ok {
			if dcs := done["DCS"].TotalNodeHours; dcs > 0 {
				sum.DSPSavedVsDCS = 1 - dsp.TotalNodeHours/dcs
			}
			if drp := done["DRP"].TotalNodeHours; drp > 0 {
				sum.DSPSavedVsDRP = 1 - dsp.TotalNodeHours/drp
			}
		}
		delete(w.reports, w.next)
		w.next++
		w.sink.Emit(sum)
	}
}
