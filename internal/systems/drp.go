package systems

import (
	"fmt"

	"repro/internal/csf"
	"repro/internal/job"
	"repro/internal/sim"
	"repro/internal/stream"
)

// DRP is the direct resource provision model (Deelman et al.): every
// end user leases virtual machines straight from the resource provider
// for exactly one job, with no runtime environment, no queuing and
// hourly billing. MTC workflows execute with unbounded parallelism,
// reusing a leased node for sequential tasks and releasing everything at
// the end.
//
// On the default (unbounded) pool leases are independent per end user,
// so per-partition pools of the same capacity reproduce the serial run
// exactly.
var DRP = &Descriptor{
	Name: "DRP",
	Open: func(capacity int, opts Options) (Instance, error) {
		p, err := NewPlatform("DRP", false, capacity, opts)
		if err != nil {
			return nil, err
		}
		return &DRPInstance{p}, nil
	},
}

// DRPInstance is an open direct-resource-provision simulation.
type DRPInstance struct {
	Platform
}

// Attach implements Instance.
func (x *DRPInstance) Attach(wl *Workload) error { return x.attach(wl, nil, nil) }

// AttachStream implements Instance. DRP's per-end-user accounting is
// inherently O(total jobs): every delivered job creates an owner entry,
// so only the task schedule (not the accountant) is bounded by the
// feeder window.
func (x *DRPInstance) AttachStream(wl *Workload, src stream.Source, f *stream.Feeder) error {
	return x.attach(wl, src, f)
}

// attach schedules wl's end-user leases, from the materialized job slice
// when f is nil.
func (x *DRPInstance) attach(wl *Workload, src stream.Source, f *stream.Feeder) error {
	if err := x.Admit(wl, src); err != nil {
		return err
	}
	if wl.Class == job.MTC {
		actions, collect := drpWorkflowActions(x.Sim, x.Prov, wl)
		x.Collect(collect)
		return FeedActions(x.Sim, f, wl, actions, nil)
	}
	if f == nil {
		x.Collect(runDRPHTC(x.Sim, x.Prov, wl))
		return nil
	}
	var owners []string
	submitted, completed := 0, new(int)
	x.Collect(func(sim.Time) ProviderAgg {
		return ProviderAgg{
			Name:      wl.Name,
			Class:     job.HTC,
			Owners:    owners,
			Submitted: submitted,
			Completed: *completed,
			Adjusted:  -1,
		}
	})
	return FeedJobs(x.Sim, f, wl, src, nil, func(j *job.Job) {
		owner := fmt.Sprintf("%s/u%d", wl.Name, j.ID)
		owners = append(owners, owner)
		submitted++
		l := &drpLease{engine: x.Sim, prov: x.Prov, owner: owner, j: j, completed: completed}
		l.fn = l.fire
		l.fire()
	})
}

// drpLease is one end user's whole-job lease: submit acquires, the same
// node fires again at completion to release. One struct (from a single
// per-workload slab) and one bound callback cover both events, so the
// run's hot loop schedules completions without allocating.
type drpLease struct {
	engine    *sim.Engine
	prov      *csf.ProvisionService
	owner     string
	j         *job.Job
	completed *int
	leased    bool
	fn        func()
}

func (l *drpLease) fire() {
	if !l.leased {
		granted := l.prov.RequestDynamic(l.owner, l.j.Nodes)
		if granted < l.j.Nodes {
			// Capacity-bound cloud: the end user walks away (the
			// DRP model has no queue to wait in). Return any
			// partial best-effort grant.
			if granted > 0 {
				if err := l.prov.Release(l.owner, granted); err != nil {
					panic(fmt.Sprintf("systems: drp partial release: %v", err))
				}
			}
			return
		}
		l.leased = true
		l.engine.Schedule(l.j.Runtime, l.fn)
		return
	}
	if err := l.prov.Release(l.owner, l.j.Nodes); err != nil {
		panic(fmt.Sprintf("systems: drp release %s: %v", l.owner, err))
	}
	*l.completed++
}

// runDRPHTC schedules every independent job as its own end-user lease:
// acquire at submit, run immediately, release at completion. It returns
// the provider's aggregate collector.
func runDRPHTC(engine *sim.Engine, prov *csf.ProvisionService, wl *Workload) func(sim.Time) ProviderAgg {
	owners := make([]string, 0, len(wl.Jobs))
	completed := new(int)
	leases := make([]drpLease, len(wl.Jobs))
	engine.ScheduleBatch(len(wl.Jobs), func(i int) (sim.Time, func()) {
		j := &wl.Jobs[i]
		owner := fmt.Sprintf("%s/u%d", wl.Name, j.ID)
		owners = append(owners, owner)
		l := &leases[i]
		*l = drpLease{engine: engine, prov: prov, owner: owner, j: j, completed: completed}
		l.fn = l.fire
		return j.Submit, l.fn
	})
	return func(sim.Time) ProviderAgg {
		return ProviderAgg{
			Name:      wl.Name,
			Class:     job.HTC,
			Owners:    owners,
			Submitted: len(wl.Jobs),
			Completed: *completed,
			Adjusted:  -1,
		}
	}
}

// drpWorkflowRun executes one workflow with unbounded leasing and node
// reuse: ready tasks start immediately, completed tasks return their nodes
// to an idle pool consumed before new leases, and the whole lease releases
// when the workflow drains.
type drpWorkflowRun struct {
	engine *sim.Engine
	prov   *csf.ProvisionService
	owner  string

	idle      int
	leased    int
	remaining int
	unmet     map[int]int
	deps      map[int][]*job.Job
	completed int
	first     sim.Time
	last      sim.Time

	// doneFree recycles task-completion timer nodes across the workflow's
	// events, keeping the start/complete cascade allocation-free once the
	// widest stage has run.
	doneFree []*drpTaskDone
}

// drpTaskDone is a reusable completion timer for one running task.
type drpTaskDone struct {
	r  *drpWorkflowRun
	t  *job.Job
	fn func()
}

func (n *drpTaskDone) run() {
	t := n.t
	n.t = nil
	r := n.r
	r.doneFree = append(r.doneFree, n)
	r.complete(t)
}

// scheduleComplete arms t's completion on a recycled node.
func (r *drpWorkflowRun) scheduleComplete(t *job.Job) {
	var n *drpTaskDone
	if k := len(r.doneFree); k > 0 {
		n = r.doneFree[k-1]
		r.doneFree = r.doneFree[:k-1]
	} else {
		n = &drpTaskDone{r: r}
		n.fn = n.run
	}
	n.t = t
	r.engine.Schedule(t.Runtime, n.fn)
}

func (r *drpWorkflowRun) start(t *job.Job) {
	take := t.Nodes
	if r.idle >= take {
		r.idle -= take
	} else {
		usedIdle := r.idle
		need := take - usedIdle
		r.idle = 0
		granted := r.prov.RequestDynamic(r.owner, need)
		if granted < need {
			// Capacity-bound cloud: the task cannot run; the workflow
			// stalls here (counted as incomplete). Keep whatever nodes
			// we hold for later tasks.
			r.idle = usedIdle + granted
			if granted > 0 {
				r.leased += granted
			}
			return
		}
		r.leased += need
	}
	r.scheduleComplete(t)
}

func (r *drpWorkflowRun) complete(t *job.Job) {
	r.idle += t.Nodes
	r.completed++
	r.remaining--
	r.last = r.engine.Now()
	for _, dep := range r.deps[t.ID] {
		r.unmet[dep.ID]--
		if r.unmet[dep.ID] == 0 {
			delete(r.unmet, dep.ID)
			r.start(dep)
		}
	}
	delete(r.deps, t.ID)
	if r.remaining == 0 && r.leased > 0 {
		if err := r.prov.Release(r.owner, r.leased); err != nil {
			panic(fmt.Sprintf("systems: drp workflow release: %v", err))
		}
		r.leased = 0
		r.idle = 0
	}
}

// drpWorkflowActions builds one release action per workflow of wl, in
// first-seen order, plus the provider-aggregate collector over them.
func drpWorkflowActions(engine *sim.Engine, prov *csf.ProvisionService, wl *Workload) ([]stream.Action, func(sim.Time) ProviderAgg) {
	owner := wl.Name + "/mtc"
	groups := WorkflowGroups(wl.Jobs)
	runs := make([]*drpWorkflowRun, 0, len(groups))
	actions := make([]stream.Action, 0, len(groups))
	for _, g := range groups {
		tasks := g.Tasks
		run := &drpWorkflowRun{
			engine:    engine,
			prov:      prov,
			owner:     owner,
			remaining: len(tasks),
			unmet:     make(map[int]int),
			deps:      make(map[int][]*job.Job),
			first:     g.At,
		}
		runs = append(runs, run)
		actions = append(actions, stream.Action{At: g.At, Delta: g.Delta, Run: func() {
			for _, t := range tasks {
				if len(t.Deps) == 0 {
					continue
				}
				run.unmet[t.ID] = len(t.Deps)
				for _, d := range t.Deps {
					run.deps[d] = append(run.deps[d], t)
				}
			}
			for _, t := range tasks {
				if len(t.Deps) == 0 {
					run.start(t)
				}
			}
		}})
	}
	return actions, func(sim.Time) ProviderAgg {
		agg := ProviderAgg{
			Name:     wl.Name,
			Class:    job.MTC,
			Owners:   []string{owner},
			Adjusted: -1,
		}
		var span sim.Time
		var firstSet bool
		var first, last sim.Time
		for _, run := range runs {
			agg.Submitted += run.remaining + run.completed
			agg.Completed += run.completed
			if !firstSet || run.first < first {
				first = run.first
				firstSet = true
			}
			if run.last > last {
				last = run.last
			}
		}
		span = last - first
		if span > 0 {
			agg.TPS = float64(agg.Completed) / float64(span)
		}
		return agg
	}
}
