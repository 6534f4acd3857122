package sim

import (
	"math/rand"
	"testing"

	"repro/internal/sim/refheap"
)

// kernelOps is the least common denominator of the fast kernel and the
// refheap reference kernel, expressed over plain int64s so one seeded
// script drives both implementations identically.
type kernelOps struct {
	name     string
	now      func() int64
	length   func() int
	at       func(t int64, fn func()) int64
	schedule func(d int64, fn func()) int64
	cancel   func(id int64) bool
	batch    func(n int, at func(i int) int64, fire func(i int))
	lane     func(times []int64, fire func(i int))
	every    func(interval int64, fn func()) func()
	stop     func()
	run      func(until int64)
	runAll   func()
}

// refBatch replays a batch on the reference kernel as the n individual
// At calls it must be indistinguishable from.
func refBatch(e *refheap.Engine) func(n int, at func(i int) int64, fire func(i int)) {
	return func(n int, at func(i int) int64, fire func(i int)) {
		for i := 0; i < n; i++ {
			e.At(at(i), func() { fire(i) })
		}
	}
}

// refLane replays a lane on the reference kernel as one At call per item,
// all issued when the lane is queued.
func refLane(e *refheap.Engine) func(times []int64, fire func(i int)) {
	return func(times []int64, fire func(i int)) {
		for i, t := range times {
			e.At(t, func() { fire(i) })
		}
	}
}

// fastLane feeds a lane's items to the fast kernel one at a time,
// counting in backlog the items not yet handed over, so that Len plus
// backlog is comparable with the reference kernel's queue length.
func fastLane(e *Engine, backlog *int) func(times []int64, fire func(i int)) {
	return func(times []int64, fire func(i int)) {
		*backlog += len(times) - 1
		i := 0
		e.Lane(times[0], func() (Time, bool) {
			fire(i)
			if i++; i == len(times) {
				return 0, false
			}
			*backlog--
			return times[i], true
		})
	}
}

func fastOps(e *Engine) kernelOps {
	backlog := 0
	return kernelOps{
		name:     "fast",
		now:      e.Now,
		length:   func() int { return e.Len() + backlog },
		at:       func(t int64, fn func()) int64 { return int64(e.At(t, fn)) },
		schedule: func(d int64, fn func()) int64 { return int64(e.Schedule(d, fn)) },
		cancel:   func(id int64) bool { return e.Cancel(EventID(id)) },
		batch:    e.ScheduleBatch,
		lane:     fastLane(e, &backlog),
		every:    e.Every,
		stop:     e.Stop,
		run:      e.Run,
		runAll:   e.RunAll,
	}
}

func refOps(e *refheap.Engine) kernelOps {
	return kernelOps{
		name:     "ref",
		now:      e.Now,
		length:   e.Len,
		at:       e.At,
		schedule: e.Schedule,
		cancel:   e.Cancel,
		batch:    refBatch(e),
		lane:     refLane(e),
		every:    e.Every,
		stop:     e.Stop,
		run:      e.Run,
		runAll:   e.RunAll,
	}
}

// fastStepOps drives the fast kernel through the exported step
// primitives alone: run and runAll are reimplemented as the documented
// `for HasPending() { Step() }` loop with a driver-local stop flag —
// exactly the loop an external orchestrator (internal/clustersim) runs —
// so a trace-identical replay proves Step/PeekNextTime/HasPending
// compose back into Run/RunAll semantics.
func fastStepOps(e *Engine) kernelOps {
	stopped := false
	backlog := 0
	return kernelOps{
		name:     "fast-step",
		now:      e.Now,
		length:   func() int { return e.Len() + backlog },
		at:       func(t int64, fn func()) int64 { return int64(e.At(t, fn)) },
		schedule: func(d int64, fn func()) int64 { return int64(e.Schedule(d, fn)) },
		cancel:   func(id int64) bool { return e.Cancel(EventID(id)) },
		batch:    e.ScheduleBatch,
		lane:     fastLane(e, &backlog),
		every:    e.Every,
		stop:     func() { stopped = true },
		run: func(until int64) {
			stopped = false
			for !stopped && e.HasPending() {
				if t, _ := e.PeekNextTime(); t > until {
					break
				}
				e.Step()
			}
			if !stopped && e.Now() < until {
				e.Advance(until - e.Now())
			}
		},
		runAll: func() {
			stopped = false
			for !stopped && e.Step() {
			}
		},
	}
}

// refStepOps is fastStepOps for the refheap reference kernel.
func refStepOps(e *refheap.Engine) kernelOps {
	stopped := false
	return kernelOps{
		name:     "ref-step",
		now:      e.Now,
		length:   e.Len,
		at:       e.At,
		schedule: e.Schedule,
		cancel:   e.Cancel,
		batch:    refBatch(e),
		lane:     refLane(e),
		every:    e.Every,
		stop:     func() { stopped = true },
		run: func(until int64) {
			stopped = false
			for !stopped && e.HasPending() {
				if t, _ := e.PeekNextTime(); t > until {
					break
				}
				e.Step()
			}
			if !stopped && e.Now() < until {
				e.Advance(until - e.Now())
			}
		},
		runAll: func() {
			stopped = false
			for !stopped && e.Step() {
			}
		},
	}
}

// traceEntry is one observable effect: an event executing (kind "fire"),
// a tick of an Every timer, or the boolean outcome of a Cancel.
type traceEntry struct {
	kind string
	tag  int64
	now  int64
	ok   bool
}

// script replays one seeded schedule — initial events that spawn children
// and cancel peers, sorted and unsorted batches, lanes, periodic timers that
// stop themselves, mid-run Stop calls, segmented Run windows — against a
// kernel, returning the full observable trace. Every random draw comes
// from generator state advanced identically on both kernels as long as
// their execution orders agree; any divergence shows up as differing
// traces.
func script(seed int64, ops kernelOps) []traceEntry {
	rng := rand.New(rand.NewSource(seed))
	var trace []traceEntry
	var ids []int64

	record := func(kind string, tag int64, ok bool) {
		trace = append(trace, traceEntry{kind: kind, tag: tag, now: ops.now(), ok: ok})
	}

	// Event behavior: record the firing, then (depth permitting) spawn
	// children at future instants, cancel a random earlier id (which may
	// be pending, fired or cancelled — the result bool is part of the
	// trace), or stop the whole run.
	var fire func(tag int64, depth int, behavior int64) func()
	fire = func(tag int64, depth int, behavior int64) func() {
		return func() {
			record("fire", tag, false)
			r := rand.New(rand.NewSource(behavior))
			if depth < 3 {
				for c := 0; c < int(r.Int63n(3)); c++ {
					childTag := tag*31 + int64(c) + 1
					id := ops.schedule(r.Int63n(500), fire(childTag, depth+1, behavior*131+int64(c)))
					ids = append(ids, id)
				}
			}
			if depth < 2 && r.Int63n(8) == 0 {
				// A batch of children from inside an event, some at now.
				times := make([]int64, 1+r.Intn(4))
				for i := range times {
					times[i] = ops.now() + r.Int63n(3)*r.Int63n(100)
				}
				ops.batch(len(times), func(i int) int64 { return times[i] }, func(i int) {
					childTag := tag*31 + int64(i) + 7
					fire(childTag, depth+1, behavior*137+int64(i))()
				})
			}
			if depth < 2 && r.Int63n(8) == 1 {
				// A lane queued from inside an event, its first item
				// possibly at now.
				times := make([]int64, 1+r.Intn(5))
				t := ops.now()
				for i := range times {
					t += r.Int63n(2) * r.Int63n(60)
					times[i] = t
				}
				ops.lane(times, func(i int) {
					childTag := tag*31 + int64(i) + 13
					fire(childTag, depth+1, behavior*139+int64(i))()
				})
			}
			if r.Int63n(4) == 0 && len(ids) > 0 {
				// Record the victim's issue index, not the raw id: the two
				// kernels issue different (but equally valid) id encodings.
				victim := r.Int63n(int64(len(ids)))
				record("cancel", victim, ops.cancel(ids[victim]))
			}
			if r.Int63n(64) == 0 {
				record("stop", tag, false)
				ops.stop()
			}
		}
	}

	const initial = 200
	for i := 0; i < initial; i++ {
		at := rng.Int63n(4000)
		id := ops.at(at, fire(int64(i), 0, seed*977+int64(i)))
		ids = append(ids, id)
	}

	// batch issues n items through ScheduleBatch: sorted with ties from
	// now when sorted is set, else unsorted; items tie with At events
	// and with each other, and may land exactly at now.
	batch := func(tag0 int64, n int, sorted bool) {
		times := make([]int64, n)
		t := ops.now()
		for i := range times {
			if sorted {
				t += rng.Int63n(3) * rng.Int63n(40)
				times[i] = t
			} else {
				times[i] = ops.now() + rng.Int63n(800)
			}
		}
		ops.batch(n, func(i int) int64 { return times[i] }, func(i int) {
			tag := tag0 + int64(i)
			fire(tag, 1, seed*389+tag)()
		})
	}
	batch(40_000, 150, true)
	batch(41_000, 60, false)

	// lane queues n sorted items, tied with each other and with At and
	// batch events, fed to the fast kernel one at a time.
	lane := func(tag0 int64, n int) {
		times := make([]int64, n)
		t := ops.now()
		for i := range times {
			t += rng.Int63n(3) * rng.Int63n(40)
			times[i] = t
		}
		ops.lane(times, func(i int) {
			tag := tag0 + int64(i)
			fire(tag, 1, seed*397+tag)()
		})
	}
	lane(42_000, 120)
	lane(43_000, 80)

	// Periodic timers that stop themselves after a few ticks, plus one
	// stopped externally mid-run and one stopped twice (a no-op).
	for k := 0; k < 4; k++ {
		interval := rng.Int63n(400) + 50
		limit := rng.Int63n(6) + 1
		tag := int64(10_000 + k)
		ticks := int64(0)
		var stopTick func()
		stopTick = ops.every(interval, func() {
			ticks++
			record("tick", tag, false)
			if ticks >= limit {
				stopTick()
			}
		})
	}
	extTag := int64(20_000)
	stopExt := ops.every(rng.Int63n(300)+100, func() { record("tick", extTag, false) })

	// Cancel a random subset up front, plus foreign and malformed ids.
	for i, id := range ids {
		if rng.Int63n(3) == 0 {
			record("cancel", int64(i), ops.cancel(id))
		}
	}
	record("cancel", -1, ops.cancel(0))
	record("cancel", -2, ops.cancel(1<<40))
	record("cancel", -3, ops.cancel(-77))

	// Run in segments with scheduling between windows; Stop events inside
	// the windows interrupt and the next segment resumes.
	for _, until := range []int64{500, 1200, 1201, 2600} {
		ops.run(until)
		record("segment", until, false)
		id := ops.at(ops.now()+rng.Int63n(200), fire(30_000+until, 1, seed+until))
		ids = append(ids, id)
		batch(50_000+until*100, 1+rng.Intn(40), rng.Intn(2) == 0)
		lane(60_000+until*100, 1+rng.Intn(30))
	}
	ops.run(3_000)
	stopExt()
	stopExt() // second stop must be a no-op
	ops.runAll()
	record("end", int64(ops.length()), false)
	return trace
}

// TestKernelDifferentialTrace replays seeded schedules — random
// Cancel/Every/Stop/At/batch/lane interleavings included — through the fast kernel
// and the refheap reference kernel and requires identical observable
// traces: same events, same order, same virtual timestamps, same Cancel
// outcomes, same final clock and queue length.
func TestKernelDifferentialTrace(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		fast := script(seed, fastOps(New()))
		ref := script(seed, refOps(refheap.New()))
		if len(fast) != len(ref) {
			t.Fatalf("seed %d: trace lengths differ: fast %d, ref %d", seed, len(fast), len(ref))
		}
		for i := range fast {
			if fast[i] != ref[i] {
				t.Fatalf("seed %d: trace[%d] differs:\n fast %+v\n ref  %+v", seed, i, fast[i], ref[i])
			}
		}
	}
}

// TestKernelStepPrimitiveDifferentialTrace replays the same seeded
// scripts through run loops built from the exported step primitives
// (HasPending/PeekNextTime/Step) on both kernels, and requires traces
// identical to the Run/RunAll-driven replay: externally stepping a
// kernel — the mode internal/clustersim depends on — must be
// observationally indistinguishable from its own run loop.
func TestKernelStepPrimitiveDifferentialTrace(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		base := script(seed, fastOps(New()))
		for _, stepped := range [][]traceEntry{
			script(seed, fastStepOps(New())),
			script(seed, refStepOps(refheap.New())),
		} {
			if len(base) != len(stepped) {
				t.Fatalf("seed %d: trace lengths differ: run-driven %d, step-driven %d",
					seed, len(base), len(stepped))
			}
			for i := range base {
				if base[i] != stepped[i] {
					t.Fatalf("seed %d: trace[%d] differs:\n run-driven  %+v\n step-driven %+v",
						seed, i, base[i], stepped[i])
				}
			}
		}
	}
}

// TestKernelDifferentialFIFOBurst pins the tie-break contract on a pure
// same-instant burst: thousands of events at one timestamp must pop in
// schedule order on both kernels.
func TestKernelDifferentialFIFOBurst(t *testing.T) {
	burst := func(ops kernelOps) []traceEntry {
		var trace []traceEntry
		for i := 0; i < 5000; i++ {
			tag := int64(i)
			ops.at(100, func() {
				trace = append(trace, traceEntry{kind: "fire", tag: tag, now: ops.now()})
			})
		}
		ops.runAll()
		return trace
	}
	fast := burst(fastOps(New()))
	ref := burst(refOps(refheap.New()))
	if len(fast) != len(ref) {
		t.Fatalf("trace lengths differ: fast %d, ref %d", len(fast), len(ref))
	}
	for i := range fast {
		if fast[i] != ref[i] {
			t.Fatalf("trace[%d] differs: fast %+v, ref %+v", i, fast[i], ref[i])
		}
		if fast[i].tag != int64(i) {
			t.Fatalf("burst order broken at %d: tag %d", i, fast[i].tag)
		}
	}
}
