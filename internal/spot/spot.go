// Package spot implements "ssp-spot", a spot-priced variant of the SSP
// usage model: each service provider leases its fixed-size virtual
// cluster on a spot market instead of on-demand. An hourly spot price
// follows a seeded mean-reverting walk; while the price stays at or
// below the provider's bid the cluster is held and jobs dispatch
// First-Fit (the paper's HTC policy), and whenever the price rises above
// the bid the whole lease is revoked — running jobs are killed and
// requeued, and the provider
// re-acquires the cluster once the price falls back. Interruptions show
// up in the paper's own metrics: lost completions, extra node
// adjustments and the management overhead they imply.
//
// The package is also the registry's worked extensibility example: it
// registers itself into registry.Default from init — no enum, switch or
// map in the core packages mentions it — which makes it runnable by name
// from Engine.Run, `dcsim -system ssp-spot` and scenario spec files.
package spot

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/csf"
	"repro/internal/job"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/systems"
)

// Name is the system's registered name.
const Name = "ssp-spot"

// Market parameters of the simplified spot model. Prices are fractions
// of the on-demand rate and follow a mean-reverting hourly walk
// (discrete Ornstein-Uhlenbeck): excursions above the bid interrupt the
// lease for a few hours and then revert, the episodic shape of real spot
// markets. The process starts below the bid so every provider acquires
// its cluster at first submission.
const (
	meanPrice  = 0.30 // long-run price level (and the starting price)
	bidPrice   = 0.42 // the provider's standing bid
	priceStep  = 0.06 // hourly shock standard deviation
	meanRevert = 0.20 // pull toward meanPrice per hour
	minPrice   = 0.05
	maxPrice   = 1.00
)

// System is the ssp-spot descriptor. Each spot provider only ever
// leases its own cluster (<= its FixedNodes), so with the derived
// capacity (sum of FixedNodes) every acquire succeeds in serial and
// partitioned runs alike; per-provider price walks are seeded by attach
// position (see Instance), which the partition seed anchor preserves.
var System = &systems.Descriptor{
	Name:          Name,
	Open:          func(capacity int, opts systems.Options) (systems.Instance, error) { return open(capacity, opts) },
	FixedCapacity: true,
	Seeded:        true,
}

func init() {
	registry.Default.MustRegister(Name, registry.Describe(System))
}

// PriceWalk is the spot market's hourly price process — the
// mean-reverting walk described above — exported so other packages
// (internal/clustersim's spot-price-aware routing policy) can observe a
// deterministic per-instance price series without running a full
// ssp-spot simulation. The zero value is unusable; construct with
// NewPriceWalk.
type PriceWalk struct {
	price float64
	rng   *rand.Rand
}

// NewPriceWalk returns a walk over its own seeded random source,
// starting at the long-run mean price (below the standing bid).
func NewPriceWalk(seed int64) *PriceWalk {
	return &PriceWalk{price: meanPrice, rng: rand.New(rand.NewSource(seed))}
}

// Price reports the current price as a fraction of the on-demand rate.
func (w *PriceWalk) Price() float64 { return w.price }

// Tick advances the walk by one hour and returns the new price.
func (w *PriceWalk) Tick() float64 {
	w.price += meanRevert*(meanPrice-w.price) + w.rng.NormFloat64()*priceStep
	if w.price < minPrice {
		w.price = minPrice
	}
	if w.price > maxPrice {
		w.price = maxPrice
	}
	return w.price
}

// Bid reports the providers' standing bid price, the threshold the
// spot-price-aware routing policy compares prices against.
func Bid() float64 { return bidPrice }

// Instance is an open ssp-spot simulation. The i-th attached workload's
// price process is seeded opts.Seed + i*7919 + 1 — a pure function of
// the instance's own seed and membership order, so a federated
// instance's results do not depend on how many sibling instances exist
// or how their events interleave, and streamed and materialized runs
// see identical markets.
type Instance struct {
	systems.Platform
	seed     int64
	attached int
}

// open opens an empty ssp-spot instance over a pool of capacity nodes.
func open(capacity int, opts systems.Options) (*Instance, error) {
	p, err := systems.NewPlatform(Name, false, capacity, opts)
	if err != nil {
		return nil, err
	}
	return &Instance{Platform: p, seed: opts.Seed}, nil
}

// Attach implements systems.Instance: the provider's spot cluster,
// market ticks and job arrivals are scheduled on the instance clock.
func (x *Instance) Attach(wl *systems.Workload) error { return x.attach(wl, nil, nil) }

// AttachStream implements systems.Instance.
func (x *Instance) AttachStream(wl *systems.Workload, src stream.Source, f *stream.Feeder) error {
	return x.attach(wl, src, f)
}

// attach wires wl's spot provider, feeding it from the materialized job
// slice when src is nil.
func (x *Instance) attach(wl *systems.Workload, src stream.Source, f *stream.Feeder) error {
	if err := x.Admit(wl, src); err != nil {
		return err
	}
	p := &spotProvider{
		engine:  x.Sim,
		prov:    x.Prov,
		wl:      wl,
		size:    wl.FixedNodes,
		walk:    NewPriceWalk(x.seed + int64(x.attached)*7919 + 1),
		running: make(map[int]runningTask),
	}
	x.attached++
	x.Collect(p.agg)
	acquire := func(first sim.Time) {
		p.firstSubmit = first
		x.Sim.At(first, func() {
			p.tryAcquire()
			p.stopTick = x.Sim.Every(sim.Hour, p.tick)
		})
	}
	if wl.Class == job.MTC {
		p.submitted = len(wl.Jobs)
		p.unmet = make(map[int]int)
		p.dependents = make(map[int][]*job.Job)
		systems.FeedActions(x.Sim, wl, p.workflowActions(), acquire)
		return nil
	}
	submit := p.enqueue
	if src == nil {
		p.submitted = len(wl.Jobs)
	} else {
		submit = func(j *job.Job) {
			p.submitted++
			p.enqueue(j)
		}
	}
	return systems.FeedJobs(x.Sim, f, wl, src, acquire, submit)
}

// agg collects the provider's aggregate; its counters are live, so at a
// window boundary "completed" means completed by then.
func (p *spotProvider) agg(sim.Time) systems.ProviderAgg {
	a := systems.ProviderAgg{
		Name:      p.wl.Name,
		Class:     p.wl.Class,
		Owners:    []string{p.wl.Name},
		Submitted: p.submitted,
		Completed: p.completed,
		Adjusted:  -1,
	}
	if span := p.lastDone - p.firstSubmit; p.wl.Class == job.MTC && span > 0 {
		a.TPS = float64(p.completed) / float64(span)
	}
	return a
}

// runningTask tracks one dispatched job so an interruption can cancel its
// completion and requeue it.
type runningTask struct {
	j  *job.Job
	ev sim.EventID
}

// spotProvider is one service provider's spot cluster: a First-Fit
// queue over FixedNodes nodes that exist only while the market price is
// at or below the bid.
type spotProvider struct {
	engine *sim.Engine
	prov   *csf.ProvisionService
	wl     *systems.Workload
	size   int

	walk *PriceWalk
	held bool
	free int

	queue   []*job.Job
	running map[int]runningTask

	// MTC dependency state.
	unmet      map[int]int
	dependents map[int][]*job.Job

	submitted   int
	completed   int
	dropped     int // jobs wider than the cluster, never runnable
	finished    bool
	stopTick    func()
	firstSubmit sim.Time
	lastDone    sim.Time
}

// workflowActions builds one submission action per workflow of the
// provider's workload, in first-seen order, wiring dependency tracking
// and enqueueing root tasks.
func (p *spotProvider) workflowActions() []systems.Action {
	groups := systems.WorkflowGroups(p.wl.Jobs)
	actions := make([]systems.Action, 0, len(groups))
	for _, g := range groups {
		tasks := g.Tasks
		actions = append(actions, systems.Action{At: g.At, Run: func() {
			for _, t := range tasks {
				if len(t.Deps) == 0 {
					continue
				}
				p.unmet[t.ID] = len(t.Deps)
				for _, d := range t.Deps {
					p.dependents[d] = append(p.dependents[d], t)
				}
			}
			for _, t := range tasks {
				if len(t.Deps) == 0 {
					p.enqueue(t)
				}
			}
		}})
	}
	return actions
}

// tick advances the hourly price walk and flips the lease state across
// the bid boundary.
func (p *spotProvider) tick() {
	price := p.walk.Tick()
	switch {
	case p.held && price > bidPrice:
		p.interrupt()
	case !p.held && price <= bidPrice:
		p.tryAcquire()
	}
}

// tryAcquire leases the whole cluster when the price allows; a rejected
// request (capacity-bound pool) is retried at the next tick.
func (p *spotProvider) tryAcquire() {
	if p.held || p.finished || p.walk.Price() > bidPrice {
		return
	}
	granted := p.prov.RequestDynamic(p.wl.Name, p.size)
	if granted < p.size {
		// Grant-or-reject yields 0 here; a best-effort partial grant is
		// returned — spot instances are all-or-nothing.
		if granted > 0 {
			if err := p.prov.Release(p.wl.Name, granted); err != nil {
				panic(fmt.Sprintf("spot: partial release %s: %v", p.wl.Name, err))
			}
		}
		return
	}
	p.held = true
	p.free = p.size
	p.dispatch()
}

// interrupt revokes the lease: running jobs are killed and requeued ahead
// of the waiting queue (they restart from scratch when the cluster comes
// back — no checkpointing).
func (p *spotProvider) interrupt() {
	ids := make([]int, 0, len(p.running))
	for id := range p.running {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	requeued := make([]*job.Job, 0, len(ids))
	for _, id := range ids {
		rt := p.running[id]
		p.engine.Cancel(rt.ev)
		requeued = append(requeued, rt.j)
	}
	p.running = make(map[int]runningTask)
	p.queue = append(requeued, p.queue...)
	p.held = false
	p.free = 0
	if err := p.prov.Release(p.wl.Name, p.size); err != nil {
		panic(fmt.Sprintf("spot: interrupt release %s: %v", p.wl.Name, err))
	}
}

// enqueue admits a ready job and tries to dispatch. Jobs wider than the
// cluster can never run and are dropped (they stay submitted-but-never-
// completed rather than waiting forever).
func (p *spotProvider) enqueue(j *job.Job) {
	if j.Nodes > p.size {
		p.dropped++
		return
	}
	p.queue = append(p.queue, j)
	p.dispatch()
}

// dispatch starts queued jobs First-Fit — walk the queue in order and
// start everything that fits, the paper's HTC dispatch policy — while
// the cluster is held.
func (p *spotProvider) dispatch() {
	if !p.held || p.free == 0 || len(p.queue) == 0 {
		return
	}
	kept := p.queue[:0]
	for _, j := range p.queue {
		if j.Nodes <= p.free {
			p.free -= j.Nodes
			ev := p.engine.Schedule(j.Runtime, func() { p.complete(j) })
			p.running[j.ID] = runningTask{j: j, ev: ev}
		} else {
			kept = append(kept, j)
		}
	}
	p.queue = kept
}

// complete finishes a job, releases dependents (MTC) and keeps the queue
// draining.
func (p *spotProvider) complete(j *job.Job) {
	delete(p.running, j.ID)
	p.free += j.Nodes
	p.completed++
	p.lastDone = p.engine.Now()
	for _, dep := range p.dependents[j.ID] {
		p.unmet[dep.ID]--
		if p.unmet[dep.ID] == 0 {
			delete(p.unmet, dep.ID)
			p.enqueue(dep)
		}
	}
	delete(p.dependents, j.ID)
	if p.wl.Class == job.MTC && p.completed+p.dropped == p.submitted {
		// Mirror SSP's DestroyOnCompletion: a finished MTC runtime
		// environment releases its lease instead of billing an idle spot
		// cluster to the horizon (tasks stranded behind a dropped
		// dependency keep the environment alive, like a stalled RE).
		p.finish()
		return
	}
	p.dispatch()
}

// finish tears the provider down: the market ticks stop and any held
// lease is returned.
func (p *spotProvider) finish() {
	p.finished = true
	if p.stopTick != nil {
		p.stopTick()
	}
	if p.held {
		p.held = false
		p.free = 0
		if err := p.prov.Release(p.wl.Name, p.size); err != nil {
			panic(fmt.Sprintf("spot: finish release %s: %v", p.wl.Name, err))
		}
	}
}
