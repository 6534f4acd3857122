package kernelbench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/sim"
	"repro/internal/sim/partition"
)

// DefaultPartitions is the standard multi-core measurement width: one
// kernel partition per CPU, capped at 8 (the CI runner's core budget).
func DefaultPartitions() int {
	if n := runtime.NumCPU(); n < 8 {
		return n
	}
	return 8
}

// PartitionReport is the multi-core measurement: the identical actor
// workload driven on one core and split over P per-core kernel
// partitions under the lockstep driver (internal/sim/partition).
type PartitionReport struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// CPUs is runtime.NumCPU() on the measuring machine. The speedup
	// budget applies only on runners with >= 8 cores; below that the
	// report is informational.
	CPUs int `json:"cpus"`
	// Partitions is the measured partition count P.
	Partitions int `json:"partitions"`
	// Serial drives the whole workload on a single engine.
	Serial Kernel `json:"serial"`
	// Partitioned drives the same workload split over P engines.
	Partitioned Kernel `json:"partitioned"`
	// Speedup is Partitioned.EventsPerSec / Serial.EventsPerSec.
	Speedup float64 `json:"speedup_events_per_sec"`
}

// WriteJSON writes the report as indented JSON (BENCH_partition.json).
func (r PartitionReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Text renders the report as an aligned table for terminals.
func (r PartitionReport) Text() string {
	line := func(k Kernel) string {
		return fmt.Sprintf("%-22s %10d %12.1f %14.3f %16.0f\n",
			k.Name, k.Events, k.NsPerEvent, k.AllocsPerEvent, k.EventsPerSec)
	}
	return fmt.Sprintf("%-22s %10s %12s %14s %16s\n", "driver", "events", "ns/event", "allocs/event", "events/sec") +
		line(r.Serial) + line(r.Partitioned) +
		fmt.Sprintf("speedup: %.2fx events/sec on %d partitions (%d CPUs)\n", r.Speedup, r.Partitions, r.CPUs)
}

// partitionActors is the population size, matching drive()'s workload so
// the serial leg of this report is comparable to BENCH_kernel.json.
const partitionActors = 8192

// seedShard populates one partition's engine with its shard of the actor
// workload: actors [first, first+count) of the global population, a
// proportional share of the executed-event budget, and the ticker
// complement scaled the same way. Actor RNG streams derive from the
// global actor index, so the total scheduled work is independent of how
// the population is sharded. The returned counter collects the shard's
// executed events.
func seedShard(e *sim.Engine, first, count, tickers int, events int64) *int64 {
	api := engineAPI{
		schedule: func(d int64, fn func()) int64 { return int64(e.Schedule(d, fn)) },
		cancel:   func(id int64) bool { return e.Cancel(sim.EventID(id)) },
		every:    e.Every,
		runAll:   e.RunAll,
	}
	executed := new(int64)
	remaining := new(int64)
	*remaining = events
	slab := make([]actor, count)
	apiBox := new(engineAPI)
	*apiBox = api
	for i := range slab {
		a := &slab[i]
		g := first + i // global actor index: shard-invariant streams
		a.api = apiBox
		a.rng = uint64(g)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
		a.remaining = remaining
		a.executed = executed
		a.fn = a.step
		e.Schedule(int64(g%997)+1, a.fn)
	}
	for k := 0; k < tickers; k++ {
		var stop func()
		stop = e.Every(int64(256+k*37), func() {
			*executed++
			if *remaining <= 0 {
				stop() // let the queue drain once the actors wind down
			}
		})
	}
	return executed
}

// measurePartitioned builds P engines, seeds each with its shard and
// drains them through the lockstep driver, timing the drive alone.
func measurePartitioned(ctx context.Context, name string, events int64, p int) (Kernel, error) {
	engines := make([]*sim.Engine, p)
	counters := make([]*int64, p)
	perActor := partitionActors / p
	perEvents := events / int64(p)
	perTickers := 16 / p
	if perTickers < 1 {
		perTickers = 1
	}
	for i := range engines {
		engines[i] = sim.New()
		counters[i] = seedShard(engines[i], i*perActor, perActor, perTickers, perEvents)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	// Drain mode with one huge window: a parallel RunAll. The barrier
	// fires once, so this measures partition throughput, not lockstep
	// overhead (systems runs use day-sized windows; see BenchmarkKernel
	// for the serial profile they inherit).
	_, err := partition.Run(ctx, engines, partition.Config{Horizon: 0, Window: 1 << 40, Drain: true})
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return Kernel{}, err
	}
	var fired int64
	for _, c := range counters {
		fired += *c
	}
	k := Kernel{Name: name, Events: fired}
	if fired > 0 {
		k.NsPerEvent = float64(elapsed.Nanoseconds()) / float64(fired)
		k.AllocsPerEvent = float64(m1.Mallocs-m0.Mallocs) / float64(fired)
	}
	if sec := elapsed.Seconds(); sec > 0 {
		k.EventsPerSec = float64(fired) / sec
	}
	return k, nil
}

// RunPartition executes the multi-core measurement: the actor workload
// once on a single engine and once split over p per-core partitions
// (DefaultPartitions when p <= 0, DefaultEvents executed events when
// events <= 0). Both legs run through the same lockstep driver, so the
// comparison isolates parallelism from driver overhead.
func RunPartition(ctx context.Context, events int64, p int) (PartitionReport, error) {
	if events <= 0 {
		events = DefaultEvents
	}
	if p <= 0 {
		p = DefaultPartitions()
	}
	r := PartitionReport{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		Partitions: p,
	}
	// Warm both shapes at small scale, then measure.
	if _, err := measurePartitioned(ctx, "warmup", 10_000, 1); err != nil {
		return PartitionReport{}, err
	}
	if _, err := measurePartitioned(ctx, "warmup", 10_000, p); err != nil {
		return PartitionReport{}, err
	}
	var err error
	if r.Serial, err = measurePartitioned(ctx, "serial (1 engine)", events, 1); err != nil {
		return PartitionReport{}, err
	}
	name := fmt.Sprintf("partitioned (P=%d)", p)
	if r.Partitioned, err = measurePartitioned(ctx, name, events, p); err != nil {
		return PartitionReport{}, err
	}
	if r.Serial.EventsPerSec > 0 {
		r.Speedup = r.Partitioned.EventsPerSec / r.Serial.EventsPerSec
	}
	return r, nil
}

// CheckPartition reports the first partition-budget violation, or nil.
// The speedup floor applies only on machines with >= 8 CPUs (the CI
// runner class the budget was set on); smaller machines cannot hit a 3x
// multi-core target and report informationally. The allocation ceiling
// applies everywhere: the partitioned driver must stay as
// allocation-free per event as the serial kernel.
func (b Budget) CheckPartition(r PartitionReport) error {
	if r.Partitioned.AllocsPerEvent > b.MaxAllocsPerEvent {
		return fmt.Errorf("kernelbench: partitioned driver allocates %.4f/event, budget %.4f",
			r.Partitioned.AllocsPerEvent, b.MaxAllocsPerEvent)
	}
	if b.MinPartitionSpeedup > 0 && r.CPUs >= 8 && r.Speedup < b.MinPartitionSpeedup {
		return fmt.Errorf("kernelbench: partition speedup %.2fx below budget %.2fx on %d CPUs",
			r.Speedup, b.MinPartitionSpeedup, r.CPUs)
	}
	return nil
}
