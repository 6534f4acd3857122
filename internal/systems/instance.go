package systems

import (
	"fmt"

	"repro/internal/csf"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/nodepool"
	"repro/internal/sim"
	"repro/internal/stream"
)

// UnboundedCapacity is the node pool of the paper's "large cloud
// platform": no run in the evaluation is ever capacity-bound on it. It
// is the default pool of systems without a fixed-size default (DRP,
// DawningCloud) and of federated instances.
const UnboundedCapacity = 1 << 20

// Instance is one open simulation of a system that accepts provider
// workloads incrementally: Attach (materialized) or AttachStream each
// provider while the virtual clock has not passed its first submission,
// drive Engine (RunContext, lockstep partitions, or a federated
// orchestrator's step loop), then Finalize to settle accounting and
// assemble the Result. Attached workloads must already be valid.
type Instance interface {
	// Engine exposes the instance clock for driving.
	Engine() *sim.Engine
	// Attach schedules wl's materialized job arrivals.
	Attach(wl *Workload) error
	// AttachStream admits wl with its HTC jobs pulled from src, as one
	// lane of f, which must belong to this instance's engine. With src
	// nil, and for MTC workloads (whose whole workflows stay
	// materialized), it is Attach.
	AttachStream(wl *Workload, src stream.Source, f *stream.Feeder) error
	// Accounting exposes the accountant, so a partitioned run can
	// recompute the global hourly peak over every partition's leases.
	Accounting() *metrics.Accountant
	// Window snapshots every attached provider at virtual time t; call
	// it from an event on the instance clock at t (see BuildWindow).
	Window(t sim.Time) []ProviderWindow
	// PoolLoad snapshots node pool occupancy.
	PoolLoad() (inUse, capacity int)
	// Finalize settles open leases at horizon and assembles the Result
	// over every attached workload, in attach order.
	Finalize(horizon sim.Time) (Result, error)
}

// Platform is the simulated cloud under every built-in Instance: one
// engine, node pool, accountant and provision service, plus each
// attached provider's aggregate collector in attach order. Instances
// embed it and supply Attach and AttachStream; Platform supplies the
// other five Instance methods.
type Platform struct {
	// Sim is the instance clock; Prov grants and bills the pool's leases.
	Sim  *sim.Engine
	Prov *csf.ProvisionService

	system string
	owned  bool
	pool   *nodepool.Pool
	acct   *metrics.Accountant
	setup  float64
	seen   map[string]bool
	aggs   []func(t sim.Time) ProviderAgg
}

// NewPlatform opens an empty platform of capacity nodes whose results
// are labelled system. owned marks providers that own their machines
// (DCS): idle capacity is not billed at settlement, no adjustments are
// counted and no setup overhead accrues.
func NewPlatform(system string, owned bool, capacity int, opts Options) (Platform, error) {
	engine := sim.New()
	pool, err := nodepool.NewPool(capacity)
	if err != nil {
		return Platform{}, err
	}
	acct := metrics.NewAccountant(engine.Now)
	setup := setupCostOr(opts, csf.DefaultNodeSetupSeconds)
	return Platform{
		Sim:    engine,
		Prov:   csf.NewProvisionService(pool, acct, opts.Provision, setup),
		system: system,
		owned:  owned,
		pool:   pool,
		acct:   acct,
		setup:  setup,
		seen:   make(map[string]bool),
	}, nil
}

// Admit checks wl against the attach contract every instance shares —
// unique names, a known class, MTC workloads streamed as materialized
// workflows (src nil) — and records its name.
func (p *Platform) Admit(wl *Workload, src stream.Source) error {
	if p.seen[wl.Name] {
		return fmt.Errorf("systems: duplicate workload name %q", wl.Name)
	}
	switch {
	case wl.Class != job.HTC && wl.Class != job.MTC:
		return fmt.Errorf("systems: workload %s: unknown class %v", wl.Name, wl.Class)
	case wl.Class == job.MTC && src != nil:
		return fmt.Errorf("systems: workload %s: MTC workloads stream as materialized workflows (source must be nil)", wl.Name)
	}
	p.seen[wl.Name] = true
	return nil
}

// Collect registers one attached provider's aggregate, read at the
// horizon by Finalize and at t by Window.
func (p *Platform) Collect(agg func(t sim.Time) ProviderAgg) {
	p.aggs = append(p.aggs, agg)
}

// Engine implements Instance.
func (p *Platform) Engine() *sim.Engine { return p.Sim }

// Accounting implements Instance.
func (p *Platform) Accounting() *metrics.Accountant { return p.acct }

// PoolLoad implements Instance.
func (p *Platform) PoolLoad() (inUse, capacity int) {
	return p.pool.InUse(), p.pool.Capacity()
}

// collect reads every provider's aggregate at t, in attach order.
func (p *Platform) collect(t sim.Time) []ProviderAgg {
	out := make([]ProviderAgg, 0, len(p.aggs))
	for _, agg := range p.aggs {
		a := agg(t)
		if p.owned {
			a.Adjusted = 0 // providers own their machines
		}
		out = append(out, a)
	}
	return out
}

// Finalize implements Instance.
func (p *Platform) Finalize(horizon sim.Time) (Result, error) {
	p.acct.CloseAll(horizon, !p.owned)
	res := BuildResult(p.system, horizon, p.acct, p.setup, p.Prov.RejectedRequests(), p.collect(horizon))
	if p.owned {
		// Owned machines incur no cloud setup work.
		res.OverheadSeconds = 0
		res.OverheadPerHour = 0
	}
	return res, nil
}

// Window implements Instance.
func (p *Platform) Window(t sim.Time) []ProviderWindow {
	return BuildWindow(p.acct, t, p.collect(t))
}

// Served is the runtime-environment server surface result assembly
// reads.
type Served interface {
	Submitted() int
	Completed() int
	TasksPerSecond() float64
}

// ServerAgg collects wl's aggregate from its runtime-environment server.
// Aggregates are read at the current instant (a window snapshot at t, or
// Finalize once the clock reached the horizon), so the completions so
// far are the completions by then.
func ServerAgg(wl *Workload, srv Served) func(sim.Time) ProviderAgg {
	return func(sim.Time) ProviderAgg {
		a := ProviderAgg{
			Name:      wl.Name,
			Class:     wl.Class,
			Owners:    []string{wl.Name},
			Submitted: srv.Submitted(),
			Completed: srv.Completed(),
			Adjusted:  -1,
		}
		if wl.Class == job.MTC {
			a.TPS = srv.TasksPerSecond()
		}
		return a
	}
}

// FeedJobs delivers wl's HTC jobs to submit: pulled from src as one
// lane of f when src is set, otherwise from the materialized slice as
// one engine batch. start, when set, runs with the first submission's
// time before any job is issued.
func FeedJobs(engine *sim.Engine, f *stream.Feeder, wl *Workload, src stream.Source, start func(first sim.Time), submit func(*job.Job)) error {
	if src != nil {
		return f.Attach(wl.Name, src, start, submit)
	}
	if start != nil {
		start(wl.FirstSubmit())
	}
	jobs := wl.Jobs
	engine.ScheduleBatch(len(jobs),
		func(i int) sim.Time { return jobs[i].Submit },
		func(i int) { submit(&jobs[i]) })
	return nil
}

// FeedActions issues wl's workflow actions on the engine at each
// action's time, in order. start, when set, runs at the first
// submission before any action.
func FeedActions(engine *sim.Engine, wl *Workload, actions []Action, start func(first sim.Time)) {
	if start != nil {
		start(wl.FirstSubmit())
	}
	for _, a := range actions {
		engine.At(a.At, a.Run)
	}
}
