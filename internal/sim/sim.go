// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine keeps a virtual clock measured in integer seconds and a
// priority queue of events. Events scheduled for the same instant fire in
// the order they were scheduled, which makes runs fully reproducible: the
// same sequence of Schedule calls always yields the same execution order.
//
// All management logic in this repository (TRE servers, the resource
// provision service, the job emulator) is written against this engine, so
// a two-week workload trace simulates in milliseconds while exercising the
// exact decision code the paper's emulated system runs.
//
// # Kernel design and invariants
//
// The event queue is an index-addressed 4-ary min-heap over a flat event
// slab, built for million-event runs (see the ROADMAP north star and the
// scale-100 scenario):
//
//   - heap holds slab slot numbers ordered by (time, seq); seq is a
//     monotonically increasing issue number, so ties at the same instant
//     pop in schedule order (FIFO) and the comparator is a total order —
//     pop order is independent of the heap's internal shape.
//   - slab entries are reused through a free list, so steady-state
//     scheduling performs no per-event allocation.
//   - A lane is a lazily fed, time-sorted sequence of events that holds
//     one heap node and one issue number s, drawn when the lane is
//     queued. Only the lane's current event is queued, keyed (time, s);
//     when it fires, the lane names its next event, which takes the same
//     node and the same s. Every other event was issued either before s
//     or after it, and a lane's next key is never below its current one,
//     so the pop order is exactly that of one At call per lane event, all
//     issued when the lane was — ordering by construction, whatever the
//     lane's length. Stream sources feed the kernel this way
//     (internal/stream), and ScheduleBatch is the finite case: each
//     maximal nondecreasing run of a batch is one lane over its index
//     range, so a sorted million-job feed holds one heap node and
//     allocates nothing per job.
//   - EventIDs pack (slot+1, generation). The generation increments every
//     time a slot is freed, so a stale ID — already fired, already
//     cancelled, or from another engine — can never reach a reused slot:
//     Cancel of such an ID reports false and touches nothing.
//   - Cancel is O(1) and lazy: the entry is marked dead in place and
//     skipped when it surfaces at the heap top. When dead entries
//     outnumber live ones (and exceed a small floor), the heap compacts,
//     dropping every dead entry in one O(n) heapify, so a
//     schedule-many/cancel-many workload cannot leak queue space.
//   - Every runs on timer nodes recycled through a sync.Pool; a
//     long-lived periodic scan allocates once, not once per simulated
//     provider per run.
//
// Invariants checked by the property/fuzz suite (see fuzz_test.go and
// diff_test.go): pops are nondecreasing in time and FIFO-stable per
// timestamp; Len, which counts every unfired batch item and a lane's
// queued event as one, equals scheduled minus fired minus cancelled; and
// any seeded schedule, batches and lanes included, replays on this kernel
// with event order, timestamps and side effects identical to the
// original container/heap kernel preserved in internal/sim/refheap
// (where a batch or a lane is one At call per item, issued up front).
//
// # Partitioned runs
//
// A single Engine is single-goroutine by design; multi-core scaling comes
// from running several engines side by side (internal/sim/partition).
// The invariants that make a partitioned run byte-identical to a serial
// one:
//
//   - Events never cross engines. A partitioned run only exists when the
//     model guarantees no interaction between partitions until results
//     merge (the paper's providers share nothing until accounting).
//   - Each engine's event order is a pure function of its own Schedule
//     calls, so a partition replays exactly as it would inside a serial
//     run containing the same calls — the heap, seq numbers and clock
//     are all engine-local.
//   - The lockstep driver advances every engine to the same window
//     boundary before any merge observes cross-partition state, using
//     only HasPending/PeekNextTime/Step/Advance, the same primitives the
//     differential suite proves trace-identical to Run/RunAll.
//   - Randomness stays deterministic because every RNG stream is seeded
//     from the run seed and the partition's position in the serial
//     attach order, never from partition count or host scheduling.
package sim

import (
	"context"
	"fmt"
	"sync"
)

// Time is a point in virtual time, in seconds since the simulation epoch.
type Time = int64

// Common durations, in seconds.
const (
	Second Time = 1
	Minute Time = 60
	Hour   Time = 3600
	Day    Time = 24 * Hour
	Week   Time = 7 * Day
)

// EventID identifies a scheduled event so it can be cancelled. IDs pack
// the event's slab slot and the slot's generation; they are opaque to
// callers. The zero EventID is never issued.
type EventID int64

// genMask keeps generations in 31 bits so packed IDs stay positive.
const genMask = 1<<31 - 1

// packID builds the external ID for a slot at a generation. Slot numbers
// are offset by one so the zero EventID is never produced.
func packID(slot int32, gen uint32) EventID {
	return EventID(int64(gen)<<32 | int64(slot+1))
}

// unpackID splits an ID back into slot and generation. ok is false for
// the zero ID and for IDs whose slot field underflows; out-of-range slots
// and generation mismatches are caught against the slab by the caller.
func unpackID(id EventID) (slot int, gen uint32, ok bool) {
	slotPlus1 := uint32(uint64(id) & 0xffffffff)
	if slotPlus1 == 0 {
		return 0, 0, false
	}
	return int(slotPlus1) - 1, uint32(uint64(id)>>32) & 0xffffffff, true
}

// event is one slab entry. A live entry is scheduled and uncancelled; a
// dead entry either waits at its heap position to be skipped (cancelled)
// or sits on the free list (fired/compacted/skipped).
type event struct {
	fn   func()
	lane func() (Time, bool) // non-nil for a lane's current event
	gen  uint32              // bumped on every free; stale-ID guard
	live bool
}

// heapNode is one heap entry. The ordering key (time, seq) lives in the
// node itself, so sift comparisons walk the contiguous heap array without
// dereferencing the slab — the slab is only touched at push, pop and
// cancel.
type heapNode struct {
	time Time
	seq  int64 // issue order; breaks same-time ties deterministically
	slot int32
}

// before orders heap nodes by (time, seq).
func (n heapNode) before(m heapNode) bool {
	if n.time != m.time {
		return n.time < m.time
	}
	return n.seq < m.seq
}

// heapArity is the heap fan-out. Four children per node halve the tree
// depth of the binary heap and keep each node's children in one or two
// cache lines of the int32 heap array.
const heapArity = 4

// compactMinDead is the floor below which dead entries are never worth
// compacting away.
const compactMinDead = 64

// Engine is a discrete-event simulator. The zero value is not usable;
// construct with New.
type Engine struct {
	now     Time
	heap    []heapNode // 4-ary min-heap by (time, seq)
	slab    []event
	free    []int32 // slab slots ready for reuse
	nextSeq int64
	live    int // queued and not cancelled
	dead    int // cancelled but still occupying a heap position
	// unqueued counts batch items behind their run's current event: not
	// yet in the heap, but pending for Len.
	unqueued int
	stopped  bool
}

// New returns an engine whose clock starts at time zero.
func New() *Engine { return &Engine{} }

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Len reports the number of pending (scheduled, uncancelled) events,
// counting every not-yet-fired item of a ScheduleBatch and a lane's
// queued event as one.
func (e *Engine) Len() int { return e.live + e.unqueued }

// siftUp restores the heap property for a new entry at index i.
func (e *Engine) siftUp(i int) {
	h := e.heap
	node := h[i]
	for i > 0 {
		p := (i - 1) / heapArity
		if !node.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = node
}

// siftDown restores the heap property for the entry at index i.
func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	node := h[i]
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h[c].before(h[best]) {
				best = c
			}
		}
		if !h[best].before(node) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = node
}

// popTop removes the heap's minimum entry (the caller has already decided
// its fate) and repairs the heap.
func (e *Engine) popTop() {
	h := e.heap
	n := len(h) - 1
	h[0] = h[n]
	e.heap = h[:n]
	if n > 1 {
		e.siftDown(0)
	}
}

// freeSlot recycles a slab slot: the closure is dropped so it can be
// collected, and the generation bump invalidates any ID still pointing
// here.
func (e *Engine) freeSlot(slot int32) {
	ev := &e.slab[slot]
	ev.fn = nil
	ev.lane = nil
	ev.live = false
	ev.gen = (ev.gen + 1) & genMask
	e.free = append(e.free, slot)
}

// peekLive surfaces the earliest live entry, discarding any cancelled
// entries that have reached the top. On ok, e.heap[0] is that entry.
func (e *Engine) peekLive() (node heapNode, ok bool) {
	for len(e.heap) > 0 {
		top := e.heap[0]
		if e.slab[top.slot].live {
			return top, true
		}
		e.popTop()
		e.freeSlot(top.slot)
		e.dead--
	}
	return heapNode{}, false
}

// maybeCompact rebuilds the heap without its dead entries once they
// outnumber the live heap nodes, bounding queue growth under schedule-heavy
// cancel-heavy workloads. Compaction cannot change pop order: the
// comparator is a total order, so the pop sequence is independent of the
// heap's internal arrangement.
func (e *Engine) maybeCompact() {
	if e.dead < compactMinDead || e.dead <= len(e.heap)-e.dead {
		return
	}
	kept := e.heap[:0]
	for _, n := range e.heap {
		if e.slab[n.slot].live {
			kept = append(kept, n)
		} else {
			e.freeSlot(n.slot)
		}
	}
	e.heap = kept
	e.dead = 0
	// Heapify from the last parent. Guard the small cases: with zero or
	// one survivor there is nothing to sift (and Go's truncation toward
	// zero would map len 0 to parent index 0, indexing an empty heap).
	if n := len(kept); n > 1 {
		for i := (n - 2) / heapArity; i >= 0; i-- {
			e.siftDown(i)
		}
	}
}

// Schedule runs fn after delay seconds of virtual time. A negative delay is
// an error in the caller; Schedule panics to surface the bug immediately.
func (e *Engine) Schedule(delay Time, fn func()) EventID {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	return e.At(e.now+delay, fn)
}

// At runs fn at absolute virtual time t, which must not be in the past.
func (e *Engine) At(t Time, fn func()) EventID {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	e.nextSeq++
	slot := e.push(t, e.nextSeq)
	ev := &e.slab[slot]
	ev.fn = fn
	e.live++
	return packID(slot, ev.gen)
}

// push takes a slab slot, marks it live and queues it under (t, seq).
func (e *Engine) push(t Time, seq int64) int32 {
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slab = append(e.slab, event{})
		slot = int32(len(e.slab) - 1)
	}
	e.slab[slot].live = true
	e.heap = append(e.heap, heapNode{time: t, seq: seq, slot: slot})
	e.siftUp(len(e.heap) - 1)
	return slot
}

// Lane queues a lane (see the package comment) whose first event fires
// at first. Each firing calls step, which runs the lane's current event
// and returns the time of its next one, or ok false when the lane has
// ended. The lane draws its issue number here, so the pop order is that
// of one At call per lane event made now: same-time lane events fire
// after earlier-issued events and before later ones. step must not
// return a time before the event it ran, and must not step the engine.
// Lane events cannot be cancelled.
func (e *Engine) Lane(first Time, step func() (next Time, ok bool)) {
	if first < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", first, e.now))
	}
	if step == nil {
		panic("sim: nil lane step")
	}
	e.nextSeq++
	slot := e.push(first, e.nextSeq)
	e.slab[slot].lane = step
	e.live++
}

// ScheduleBatch schedules n events: item i fires at absolute time at(i)
// by calling fire(i). The pop order is exactly that of n individual At
// calls in index order — same-time items fire in index order, after
// earlier-issued events and before later ones.
//
// Each maximal run of nondecreasing at(i) becomes one lane over its index
// range, queued in index order, so a sorted feed costs one heap node and
// no allocation per item, and a strictly decreasing one degrades to a
// node per item. at(i) must return the same time from the call until
// item i fires. Items cannot be cancelled.
func (e *Engine) ScheduleBatch(n int, at func(i int) Time, fire func(i int)) {
	if n <= 0 {
		return
	}
	if at == nil || fire == nil {
		panic("sim: nil batch function")
	}
	var starts []int
	var prev Time
	for i := 0; i < n; i++ {
		t := at(i)
		if t < e.now {
			panic(fmt.Sprintf("sim: schedule at %d before now %d", t, e.now))
		}
		if i == 0 || t < prev {
			starts = append(starts, i)
		}
		prev = t
	}
	e.unqueued += n - len(starts)
	for k, i := range starts {
		end := n
		if k+1 < len(starts) {
			end = starts[k+1]
		}
		e.Lane(at(i), e.batchRun(at, fire, i, end))
	}
}

// batchRun is the lane step of batch items i..end-1.
func (e *Engine) batchRun(at func(i int) Time, fire func(i int), i, end int) func() (Time, bool) {
	return func() (Time, bool) {
		fire(i)
		if i++; i == end {
			return 0, false
		}
		e.unqueued--
		return at(i), true
	}
}

// Cancel removes a pending event. It reports whether the event was still
// pending; cancelling an already-fired, foreign or unknown event is a
// harmless no-op. Cancellation is O(1): the entry is marked dead in place
// and skipped when it reaches the heap top (or dropped by compaction).
func (e *Engine) Cancel(id EventID) bool {
	slot, gen, ok := unpackID(id)
	if !ok || slot >= len(e.slab) {
		return false
	}
	ev := &e.slab[slot]
	if !ev.live || ev.gen != gen {
		return false
	}
	ev.live = false
	ev.fn = nil
	e.live--
	e.dead++
	e.maybeCompact()
	return true
}

// ticker is a pooled timer node backing Every. The node carries its own
// bound tick function, so rescheduling a periodic timer allocates
// nothing; nodes recycle through tickerPool across engines.
//
// Ownership: a node can only reach the pool through its own stop
// function (directly, or via the tick tail when stop ran from inside the
// callback). The stop closure nils its node reference after its first
// call, so a retained stop function never reads or writes a node that
// another engine — possibly on another goroutine — has since recycled.
// The epoch is a second, belt-and-braces guard for the same hazard.
type ticker struct {
	e        *Engine
	interval Time
	fn       func()
	tickFn   func() // t.tick, bound once per node
	id       EventID
	epoch    uint64
	stopped  bool
	inFlight bool
}

var tickerPool = sync.Pool{New: func() any { return new(ticker) }}

func (t *ticker) tick() {
	if t.stopped {
		return
	}
	t.inFlight = true
	t.fn()
	t.inFlight = false
	if t.stopped {
		t.release()
		return
	}
	t.id = t.e.Schedule(t.interval, t.tickFn)
}

// release returns the node to the pool. The epoch is deliberately kept:
// it must keep growing across reuses so stale stop functions stay inert.
func (t *ticker) release() {
	t.e = nil
	t.fn = nil
	tickerPool.Put(t)
}

// Every schedules fn to run now+interval, now+2*interval, ... until the
// returned stop function is called or the engine run window ends. The
// callback may call stop from within itself; calling stop more than once
// is a no-op.
func (e *Engine) Every(interval Time, fn func()) (stop func()) {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive interval %d", interval))
	}
	t := tickerPool.Get().(*ticker)
	t.e = e
	t.interval = interval
	t.fn = fn
	t.stopped = false
	t.inFlight = false
	t.epoch++
	if t.tickFn == nil {
		t.tickFn = t.tick
	}
	epoch := t.epoch
	t.id = e.Schedule(interval, t.tickFn)
	return func() {
		if t == nil {
			return // second call: the node is gone, possibly recycled
		}
		if t.epoch == epoch && !t.stopped {
			t.stopped = true
			t.e.Cancel(t.id)
			if !t.inFlight {
				t.release()
			}
		}
		t = nil
	}
}

// Stop makes the current Run return after the in-flight event completes.
func (e *Engine) Stop() { e.stopped = true }

// HasPending reports whether at least one live (scheduled, uncancelled)
// event is pending. Together with PeekNextTime and Step it forms the
// engine's step-primitive interface: `for e.HasPending() { e.Step() }`
// replays exactly the event sequence RunAll would execute, which is what
// lets an external orchestrator (internal/clustersim) interleave several
// engines behind one shared clock.
func (e *Engine) HasPending() bool {
	_, ok := e.peekLive()
	return ok
}

// PeekNextTime reports the virtual time of the earliest pending event
// without executing it. ok is false when no event is pending.
func (e *Engine) PeekNextTime() (Time, bool) {
	top, ok := e.peekLive()
	if !ok {
		return 0, false
	}
	return top.time, true
}

// Step executes exactly the earliest pending event, advancing the clock
// to its timestamp, and reports whether an event ran (false means the
// queue was empty). Step neither consults nor resets the Stop flag —
// window policy belongs to the loop driving it, exactly as in Run.
func (e *Engine) Step() bool {
	top, ok := e.peekLive()
	if !ok {
		return false
	}
	e.live--
	e.now = top.time
	if step := e.slab[top.slot].lane; step != nil {
		e.stepLane(step, top)
		return true
	}
	fn := e.slab[top.slot].fn
	e.popTop()
	e.freeSlot(top.slot)
	fn()
	return true
}

// stepLane fires a lane's current event. The lane's node stays at the
// heap top while step runs — everything step schedules has a greater key
// — and its next event then takes the node in place, one sift instead of
// a pop and a push.
func (e *Engine) stepLane(step func() (Time, bool), top heapNode) {
	next, ok := step()
	if !ok {
		e.popTop()
		e.freeSlot(top.slot)
		return
	}
	if next < top.time {
		panic(fmt.Sprintf("sim: lane event at %d before its predecessor at %d", next, top.time))
	}
	e.live++
	e.heap[0].time = next
	e.siftDown(0)
}

// cancelCheckEvery is how many events execute between context checks in
// RunContext. Events take microseconds, so a few thousand of them keep
// cancellation latency well under a millisecond without paying a channel
// poll per event.
const cancelCheckEvery = 4096

// Run executes events in time order until the queue is empty or the next
// event is later than until. The clock ends at the last executed event time
// (or until, whichever the caller observes via Now after a Drain). Events
// scheduled exactly at until are executed.
func (e *Engine) Run(until Time) {
	e.run(until, nil, nil)
}

// RunContext is Run with cooperative cancellation: the context is polled
// every few thousand events, and a cancelled or expired context abandons
// the remaining queue and returns ctx.Err(). A run that finishes normally
// returns nil even if the context is cancelled immediately afterwards.
func (e *Engine) RunContext(ctx context.Context, until Time) error {
	if ctx == nil {
		ctx = context.Background() //dclint:allow ctxfirst -- nil-ctx guard: documented to treat nil as no cancellation
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return e.run(until, ctx, ctx.Done())
}

// run is the shared event loop, a thin window/cancellation policy over
// the step primitives. A nil done channel skips cancellation polling
// entirely, keeping the uncancellable path allocation- and select-free.
func (e *Engine) run(until Time, ctx context.Context, done <-chan struct{}) error {
	e.stopped = false
	executed := 0
	for !e.stopped {
		next, ok := e.PeekNextTime()
		if !ok || next > until {
			break
		}
		e.Step()
		// Count executed events, not peeks: the final out-of-window peek
		// (and a peek that never executes) must not advance the poll
		// cadence, or the "every cancelCheckEvery events" contract drifts.
		if done != nil {
			if executed++; executed%cancelCheckEvery == 0 {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
		}
	}
	if e.now < until && !e.stopped {
		e.now = until
	}
	return nil
}

// RunAll executes every pending event, including ones scheduled by events
// that fire during the call, until the queue drains.
func (e *Engine) RunAll() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// Advance moves the clock forward by d without executing anything. It
// panics if an event is pending strictly before the target time; use Run
// for that. An event scheduled exactly at the target is not skipped — it
// stays pending and runnable at the new clock — so a driver that has
// stepped everything with time <= boundary may Advance to the boundary
// even while later same-instant work remains queued elsewhere.
func (e *Engine) Advance(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative advance %d", d))
	}
	target := e.now + d
	if top, ok := e.peekLive(); ok && top.time < target {
		panic("sim: Advance would skip pending events")
	}
	e.now = target
}
