// Package partition drives several sim.Engine instances in lockstep on
// separate goroutines, one engine per partition, so a single logical run
// can use every core. It is the generic kernel layer under
// the run driver in internal/systems: it knows nothing about
// workloads, pools or accounting — only how to advance N independent
// engines to shared window boundaries deterministically.
//
// The driver's contract (see the package doc of internal/sim,
// "Partitioned runs"): partitions must not interact through simulated
// state, each engine's schedule is a pure function of its own inputs,
// and every engine reaches a window boundary before the per-window
// callback observes any of them. Under those rules the merged outcome of
// a partitioned run is byte-identical to the serial run that executes
// the same schedules on one engine, whatever the partition count — the
// property the differential suite pins for P in {1,2,4,8}.
//
// Determinism of per-partition randomness is the caller's side of the
// contract: derive each partition's RNG stream from the run seed and the
// partition's position in the serial order (SeedFor is the conventional
// mixer), never from partition count, goroutine identity or the host
// clock.
package partition

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/sim"
)

// pollEvery is how many executed events pass between context polls on
// each partition's goroutine, matching the serial kernel's
// cancelCheckEvery so a partitioned run keeps the same cancellation
// latency per core.
const pollEvery = 4096

// DefaultWindow is the lockstep window when Config.Window is zero: one
// simulated day, the paper's accounting cadence.
const DefaultWindow = sim.Day

// Config shapes one partitioned run.
type Config struct {
	// Horizon is the virtual time the run advances to. Every engine's
	// clock ends exactly at Horizon (events scheduled at the horizon
	// execute, as in Engine.Run).
	Horizon sim.Time
	// Window is the lockstep cadence: all engines reach each multiple of
	// Window (clamped to Horizon) before any proceeds past it. Zero
	// means DefaultWindow.
	Window sim.Time
	// Drain keeps the run going past Horizon in whole windows until
	// every engine's queue is empty — for workloads that self-terminate
	// instead of being horizon-bounded (benchmarks).
	Drain bool
	// OnWindow, when non-nil, runs on the coordinating goroutine after
	// every engine has reached boundary — the only point where observing
	// cross-partition state is safe.
	OnWindow func(boundary sim.Time, stat WindowStat)
}

// WindowStat aggregates one lockstep window across all partitions.
type WindowStat struct {
	// Boundary is the window's closing virtual time.
	Boundary sim.Time
	// Events counts events executed in the window, summed over
	// partitions. Each event belongs to exactly one partition and one
	// window, so the series is invariant under the partition count.
	Events int64
}

// SeedFor derives partition RNG seeds the conventional way: the run's
// base seed offset by the partition's first position in the serial
// order. Systems whose serial runners already derive per-member seeds
// positionally (e.g. ssp-spot's seed + i*7919 + 1 walk) get identical
// streams in every partitioning.
func SeedFor(base int64, firstSerialIndex int) int64 {
	return base + int64(firstSerialIndex)*7919
}

// Run advances every engine to cfg.Horizon in lockstep windows, each
// engine on its own goroutine, and returns the per-window event totals.
// The context is polled on every partition goroutine every pollEvery
// executed events; cancellation abandons the run and returns ctx.Err().
//
// Run owns the engines for its duration: no other goroutine may touch
// them until it returns. Engines must all start at the same clock, at or
// before the first window boundary.
func Run(ctx context.Context, engines []*sim.Engine, cfg Config) ([]WindowStat, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("partition: no engines")
	}
	if cfg.Horizon < 0 {
		return nil, fmt.Errorf("partition: negative horizon %d", cfg.Horizon)
	}
	window := cfg.Window
	if window <= 0 {
		window = DefaultWindow
	}
	for _, e := range engines {
		if e.Now() > cfg.Horizon {
			return nil, fmt.Errorf("partition: engine clock %d already past horizon %d", e.Now(), cfg.Horizon)
		}
	}

	var stats []WindowStat
	counts := make([]int64, len(engines))
	errs := make([]error, len(engines))
	boundary := engines[0].Now()
	for {
		next := boundary + window
		if next > cfg.Horizon && !cfg.Drain {
			next = cfg.Horizon
		}
		if next == boundary {
			break // horizon reached (and not draining past it)
		}
		boundary = next

		var wg sync.WaitGroup
		for i, e := range engines {
			wg.Add(1)
			go func(i int, e *sim.Engine) {
				defer wg.Done()
				counts[i], errs[i] = advance(ctx, e, boundary)
			}(i, e)
		}
		wg.Wait()
		stat := WindowStat{Boundary: boundary}
		for i, n := range counts {
			if errs[i] != nil {
				return nil, errs[i]
			}
			stat.Events += n
		}
		stats = append(stats, stat)
		if cfg.OnWindow != nil {
			cfg.OnWindow(boundary, stat)
		}
		if cfg.Drain && boundary >= cfg.Horizon {
			drained := true
			for _, e := range engines {
				if e.HasPending() {
					drained = false
					break
				}
			}
			if drained {
				break
			}
		}
	}
	return stats, nil
}

// advance steps one engine through every event with time <= until, then
// moves its clock to the boundary, exactly as Engine.Run would. It
// returns the executed event count.
func advance(ctx context.Context, e *sim.Engine, until sim.Time) (int64, error) {
	var executed int64
	for {
		t, ok := e.PeekNextTime()
		if !ok || t > until {
			break
		}
		e.Step()
		if executed++; executed%pollEvery == 0 {
			if err := ctx.Err(); err != nil {
				return executed, err
			}
		}
	}
	if e.Now() < until {
		e.Advance(until - e.Now())
	}
	return executed, nil
}
