package systems

import (
	"context"
	"fmt"

	"repro/internal/csf"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sim/partition"
	"repro/internal/stats"
	"repro/internal/stream"
)

// Descriptor is a system's one registration (registry.Describe): how to
// open an Instance of it and when its providers may split across kernel
// partitions. That is all a system needs to run materialized, streamed,
// partitioned or federated through the one lifecycle in Execute.
type Descriptor struct {
	// Name labels the system's results.
	Name string
	// Open opens an empty instance over a pool of capacity nodes.
	Open func(capacity int, opts Options) (Instance, error)
	// FixedCapacity makes the default pool (Options.PoolCapacity 0) the
	// sum of the workloads' FixedNodes; otherwise it is
	// UnboundedCapacity.
	FixedCapacity bool
	// Isolated, when set, is the system's own condition for running a
	// workload set on separate partitions, on top of the default pool
	// that every partitioned run needs (a caller-bounded pool couples
	// providers through its free capacity).
	Isolated func(workloads []Workload) bool
	// Seeded marks systems that seed per-provider randomness by attach
	// position within an instance; each partition's seed is anchored at
	// its first workload (partition.SeedFor) so every provider keeps its
	// serial stream.
	Seeded bool
	// Owned marks systems whose providers own their machines (DCS): the
	// merged run carries no setup overhead.
	Owned bool
}

// Feed streams a run's workloads: each HTC workload with a source is
// pulled from it as one kernel lane of its instance's stream.Feeder, and
// every other workload attaches materialized. A streamed run drained
// within its horizon is byte-identical to the materialized run of the
// same jobs (see internal/stream).
type Feed struct {
	// Sources maps workload names to streaming sources; HTC workloads
	// without one attach their own job slice.
	Sources map[string]stream.Source
	// Window is the reporting cadence of OnWindow; zero means one day.
	Window sim.Time
	// OnWindow, when set, receives every provider's snapshot at the end
	// of each window of [0, horizon), in serial provider order, taken
	// before any other event at that instant. Snapshots only read, so an
	// observed run is byte-identical to an unobserved one.
	OnWindow func(index int, start, end sim.Time, rows []ProviderWindow)
	// Feeders is set by Execute to the run's feeders, one per
	// partition, for inspecting delivery and residency afterwards.
	Feeders []*stream.Feeder
}

// Execute is the one run lifecycle of every system: open, attach
// (materialized, or through feed when non-nil), drive, finalize. The
// workloads must already be valid; validation belongs to the entry
// point (registry.Describe, scenario.Compile). The context cancels the
// simulation mid-run; an aborted run returns an error wrapping
// ctx.Err().
//
// With Options.Partitions > 1, the default pool and d.Isolated holding,
// the providers split into contiguous chunks balanced by job count, one
// instance per chunk, advanced in lockstep (internal/sim/partition) and
// merged into a Result byte-identical to the serial run's (see
// mergeResults). Otherwise the run is serial, on one instance.
func (d *Descriptor) Execute(ctx context.Context, workloads []Workload, opts Options, feed *Feed) (Result, error) {
	horizon := opts.HorizonFor(workloads)
	bounds := []int{0, len(workloads)}
	if p := opts.PartitionCount(len(workloads)); p > 1 && opts.PoolCapacity == 0 && (d.Isolated == nil || d.Isolated(workloads)) {
		bounds = chunkBounds(workloads, p)
	}
	var window sim.Time
	var snap func(k int, inst Instance)
	var onWindow func(sim.Time, partition.WindowStat)
	if feed != nil {
		if opts.Horizon <= 0 {
			return Result{}, fmt.Errorf("systems: %s: options.Horizon must be positive for streamed runs", d.Name)
		}
		feed.Feeders = nil
		window = feed.Window
		if window <= 0 {
			window = sim.Day
		}
		if feed.OnWindow != nil {
			snap, onWindow = observe(len(bounds)-1, window, horizon, feed.OnWindow)
		}
	}
	insts := make([]Instance, len(bounds)-1)
	for k := range insts {
		inst, err := d.open(workloads[bounds[k]:bounds[k+1]], bounds[k], opts, feed, snap, k)
		if err != nil {
			return Result{}, err
		}
		insts[k] = inst
	}

	if len(insts) == 1 {
		if err := insts[0].Engine().RunContext(ctx, horizon); err != nil {
			return Result{}, fmt.Errorf("systems: %s run aborted: %w", d.Name, err)
		}
	} else {
		engines := make([]*sim.Engine, len(insts))
		for k, inst := range insts {
			engines[k] = inst.Engine()
		}
		if _, err := partition.Run(ctx, engines, partition.Config{Horizon: horizon, Window: window, OnWindow: onWindow}); err != nil {
			return Result{}, fmt.Errorf("systems: %s partitioned run aborted: %w", d.Name, err)
		}
	}
	if feed != nil {
		for _, f := range feed.Feeders {
			if err := f.Err(); err != nil {
				return Result{}, fmt.Errorf("systems: %s feed failed: %w", d.Name, err)
			}
		}
	}

	parts := make([]Result, len(insts))
	for k, inst := range insts {
		r, err := inst.Finalize(horizon)
		if err != nil {
			return Result{}, err
		}
		parts[k] = r
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return mergeResults(d, horizon, setupCostOr(opts, csf.DefaultNodeSetupSeconds), insts, parts), nil
}

// open opens the instance for chunk k, the workloads from serial index
// first on, schedules its window snapshots through snap when set, and
// attaches every workload (through a new feeder appended to
// feed.Feeders when streamed). The snapshots go first, so each is
// issued ahead of every event at its boundary.
func (d *Descriptor) open(chunk []Workload, first int, opts Options, feed *Feed, snap func(int, Instance), k int) (Instance, error) {
	capacity := opts.PoolCapacity
	if capacity == 0 {
		capacity = UnboundedCapacity
		if d.FixedCapacity {
			capacity = 0
			for i := range chunk {
				capacity += chunk[i].FixedNodes
			}
		}
	}
	o := opts
	if d.Seeded {
		o.Seed = partition.SeedFor(o.Seed, first)
	}
	inst, err := d.Open(capacity, o)
	if err != nil {
		return nil, err
	}
	if snap != nil {
		snap(k, inst)
	}
	if feed == nil {
		for i := range chunk {
			if err := inst.Attach(&chunk[i]); err != nil {
				return nil, err
			}
		}
		return inst, nil
	}
	f := stream.NewFeeder(inst.Engine())
	feed.Feeders = append(feed.Feeders, f)
	for i := range chunk {
		wl := &chunk[i]
		if err := inst.AttachStream(wl, feed.Sources[wl.Name], f); err != nil {
			return nil, fmt.Errorf("systems: %s: attach %s: %w", d.Name, wl.Name, err)
		}
	}
	return inst, nil
}

// observe returns snap, which schedules partition k's window snapshots
// on its instance clock, and the lockstep barrier callback of a
// partitioned run. A serial run reports from the snapshot event itself;
// a partitioned one joins the partitions' rows in serial provider order
// (chunks are contiguous) at the barrier, once every partition has taken
// its snapshot — the partition windows then coincide with the report
// windows.
func observe(parts int, window, horizon sim.Time, report func(int, sim.Time, sim.Time, []ProviderWindow)) (snap func(int, Instance), barrier func(sim.Time, partition.WindowStat)) {
	rows := make([][]ProviderWindow, parts)
	snap = func(k int, inst Instance) {
		for i, start := 0, sim.Time(0); start < horizon; i, start = i+1, start+window {
			end := min(start+window, horizon)
			inst.Engine().At(end, func() {
				rows[k] = inst.Window(end)
				if parts == 1 {
					report(i, start, end, rows[0])
				}
			})
		}
	}
	index, start := 0, sim.Time(0)
	barrier = func(end sim.Time, _ partition.WindowStat) {
		var joined []ProviderWindow
		for _, r := range rows {
			joined = append(joined, r...)
		}
		report(index, start, end, joined)
		index, start = index+1, end
	}
	return snap, barrier
}

// chunkBounds cuts the workload list into p contiguous chunks balanced
// by job count (the dominant cost driver), returning p+1 cut indices.
// Every chunk is non-empty; p must be <= len(workloads).
func chunkBounds(workloads []Workload, p int) []int {
	remaining := 0
	for i := range workloads {
		remaining += len(workloads[i].Jobs)
	}
	bounds := make([]int, 1, p+1)
	idx := 0
	for k := 0; k < p; k++ {
		chunksLeft := p - k
		goal := remaining / chunksLeft
		take := 0
		// Take at least one workload, then fill toward the per-chunk
		// goal while leaving one workload for each later chunk.
		for idx < len(workloads)-(chunksLeft-1) && (take == 0 || take < goal) {
			take += len(workloads[idx].Jobs)
			idx++
		}
		remaining -= take
		bounds = append(bounds, idx)
	}
	return bounds
}

// mergeResults assembles the run-level Result from per-partition
// results. Bit-identity with the serial run rests on four facts, each
// mirroring exactly what BuildResult computes serially:
//
//   - Per-provider rows are computed inside each partition from that
//     provider's own lease history, which unfolds identically to the
//     serial run (isolation), and concatenate in serial provider order
//     (chunks are contiguous).
//   - TotalNodeHours and TotalNodesAdjusted re-accumulate over the
//     merged provider rows in that same order — never from per-partition
//     subtotals, whose float addition order would differ.
//   - The global PeakNodes recomputes stats.BucketMax over the union of
//     all partitions' lease intervals; BucketMax is a pure function of
//     the interval multiset, so how the intervals were partitioned is
//     invisible.
//   - OverheadSeconds is the single multiply float64(total)*setupCost,
//     exactly as serial, not a sum of per-partition products.
func mergeResults(d *Descriptor, horizon sim.Time, setup float64, insts []Instance, parts []Result) Result {
	res := Result{System: d.Name, Horizon: horizon}
	for _, p := range parts {
		res.Providers = append(res.Providers, p.Providers...)
		res.RejectedRequests += p.RejectedRequests
	}
	for i := range res.Providers {
		res.TotalNodeHours += res.Providers[i].NodeHours
		res.TotalNodesAdjusted += res.Providers[i].NodesAdjusted
	}
	var ivs []stats.Interval
	for _, inst := range insts {
		ivs = append(ivs, inst.Accounting().Intervals()...)
	}
	res.PeakNodes = stats.MaxInt(stats.BucketMax(ivs, horizon, metrics.HourSeconds))
	if !d.Owned {
		// Owned machines incur no cloud setup work, as in
		// Platform.Finalize.
		res.OverheadSeconds = float64(res.TotalNodesAdjusted) * setup
		if horizon > 0 {
			res.OverheadPerHour = res.OverheadSeconds / (float64(horizon) / 3600)
		}
	}
	return res
}

// mtcFitsFixed reports whether every MTC workload's widest job fits its
// fixed runtime environment. When one does not, a fixed-system MTC
// server can outgrow its own RE through the shared pool — dynamics that
// observe capacity other providers freed, which per-partition pools
// cannot reproduce — so partitioning falls back to serial.
func mtcFitsFixed(workloads []Workload) bool {
	for i := range workloads {
		wl := &workloads[i]
		if wl.Class == job.MTC && job.MaxNodes(wl.Jobs) > wl.FixedNodes {
			return false
		}
	}
	return true
}
