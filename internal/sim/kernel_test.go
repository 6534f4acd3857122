package sim

import (
	"runtime"
	"slices"
	"testing"
)

// TestCancelHundredThousandNoLeak is the regression test for the old
// kernel's Cancel cost and for lazy-cancellation leaks: schedule and
// cancel 100k events and require that Len reports zero, that the physical
// heap compacted away the dead entries, and that every slab slot is back
// on the free list.
func TestCancelHundredThousandNoLeak(t *testing.T) {
	e := New()
	const n = 100_000
	ids := make([]EventID, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, e.Schedule(Time(i%9973), func() { t.Error("cancelled event fired") }))
	}
	for _, id := range ids {
		if !e.Cancel(id) {
			t.Fatalf("Cancel(%d) = false for a pending event", id)
		}
	}
	if e.Len() != 0 {
		t.Fatalf("Len() = %d after cancelling everything, want 0", e.Len())
	}
	// Lazy cancellation must not hold the queue's space: compaction keeps
	// the physical heap bounded by the live count plus the compaction
	// floor.
	if len(e.heap) > compactMinDead {
		t.Errorf("physical heap holds %d dead entries after full cancel, want <= %d",
			len(e.heap), compactMinDead)
	}
	if got := len(e.free) + len(e.heap); got != n {
		t.Errorf("slot accounting: free %d + heap %d != scheduled %d", len(e.free), len(e.heap), n)
	}
	// The engine stays fully usable and re-uses the slots it reclaimed.
	fired := 0
	for i := 0; i < n; i++ {
		e.Schedule(Time(i%97), func() { fired++ })
	}
	if grew := len(e.slab); grew > n+compactMinDead {
		t.Errorf("slab grew to %d on reschedule, want slot reuse near %d", grew, n)
	}
	e.RunAll()
	if fired != n {
		t.Errorf("fired = %d after reuse, want %d", fired, n)
	}
	if e.Len() != 0 {
		t.Errorf("Len() = %d after drain, want 0", e.Len())
	}
}

// TestCancelAllAtCompactionBoundary is the regression test for the
// compaction edge where every entry dies: cancelling exactly
// compactMinDead events (and nearby counts, and a single survivor) used
// to heapify an empty heap and panic with an index-out-of-range.
func TestCancelAllAtCompactionBoundary(t *testing.T) {
	for _, n := range []int{compactMinDead - 1, compactMinDead, compactMinDead + 1, 2 * compactMinDead} {
		e := New()
		ids := make([]EventID, 0, n)
		for i := 0; i < n; i++ {
			ids = append(ids, e.Schedule(Time(i), func() { t.Error("cancelled event fired") }))
		}
		for _, id := range ids {
			e.Cancel(id) // must not panic at any point
		}
		if e.Len() != 0 {
			t.Fatalf("n=%d: Len() = %d, want 0", n, e.Len())
		}
		fired := false
		e.Schedule(1, func() { fired = true })
		e.RunAll()
		if !fired {
			t.Fatalf("n=%d: engine unusable after full-cancel compaction", n)
		}
	}
	// One survivor among the dead: compaction keeps a single-entry heap.
	e := New()
	var ids []EventID
	for i := 0; i < 2*compactMinDead; i++ {
		ids = append(ids, e.Schedule(Time(i+10), func() { t.Error("cancelled event fired") }))
	}
	fired := false
	e.Schedule(5, func() { fired = true })
	for _, id := range ids {
		e.Cancel(id)
	}
	e.RunAll()
	if !fired || e.Len() != 0 {
		t.Fatalf("survivor lost: fired=%v Len=%d", fired, e.Len())
	}
}

// TestCancelInterleavedWithPopsKeepsAccounting mixes fired and cancelled
// events so both slot-recycling paths run, then checks the counters.
func TestCancelInterleavedWithPopsKeepsAccounting(t *testing.T) {
	e := New()
	const n = 10_000
	fired := 0
	var ids []EventID
	for i := 0; i < n; i++ {
		ids = append(ids, e.Schedule(Time(i), func() { fired++ }))
	}
	cancelled := 0
	for i, id := range ids {
		if i%3 == 0 {
			if e.Cancel(id) {
				cancelled++
			}
		}
	}
	if e.Len() != n-cancelled {
		t.Fatalf("Len() = %d, want %d", e.Len(), n-cancelled)
	}
	e.RunAll()
	if fired != n-cancelled {
		t.Fatalf("fired = %d, want %d", fired, n-cancelled)
	}
	if e.Len() != 0 || e.dead != 0 {
		t.Fatalf("post-drain: Len=%d dead=%d, want 0/0", e.Len(), e.dead)
	}
}

// TestScheduleBatchMatchesIndividualAt pins ScheduleBatch semantics: item
// order assigns issue order, so a batch is indistinguishable from the
// equivalent sequence of At calls — FIFO ties among items and against
// At events issued before and after it, multi-run unsorted input, items
// at the current instant, and events scheduled from inside an item.
func TestScheduleBatchMatchesIndividualAt(t *testing.T) {
	cases := []struct {
		name      string
		now       Time
		times     []Time
		pre, post []Time // At events issued before and after the batch
		want      []int  // expected order of batch items, when pinned
	}{
		{name: "tied runs", times: []Time{30, 10, 10, 20, 10, 30}, want: []int{1, 2, 4, 3, 0, 5}},
		{name: "sorted", times: []Time{1, 2, 2, 2, 5, 9, 9}, want: []int{0, 1, 2, 3, 4, 5, 6}},
		{name: "unsorted multi-run", times: []Time{5, 7, 7, 3, 9, 1, 1, 4, 2, 8, 8, 0}},
		{name: "strictly decreasing", times: []Time{6, 5, 4, 3, 2, 1}, want: []int{5, 4, 3, 2, 1, 0}},
		{name: "At ties", times: []Time{10, 10, 20, 20, 10}, pre: []Time{20, 10}, post: []Time{10, 20}},
		{name: "items at now", now: 7, times: []Time{7, 9, 7, 7, 8}, pre: []Time{7}, post: []Time{7, 9}},
	}
	for _, tc := range cases {
		run := func(batch bool) ([]int, int) {
			e := New()
			e.Advance(tc.now)
			var order []int
			fire := func(i int) {
				order = append(order, i)
				if i%3 == 0 { // a child at the item's own instant
					e.At(e.Now(), func() { order = append(order, 1000+i) })
				}
			}
			for k, at := range tc.pre {
				e.At(at, func() { order = append(order, -1-k) })
			}
			if batch {
				e.ScheduleBatch(len(tc.times), func(i int) Time { return tc.times[i] }, fire)
			} else {
				for i, at := range tc.times {
					e.At(at, func() { fire(i) })
				}
			}
			for k, at := range tc.post {
				e.At(at, func() { order = append(order, 100+k) })
			}
			pending := e.Len()
			e.RunAll()
			return order, pending
		}
		batched, batchLen := run(true)
		individual, atLen := run(false)
		if batchLen != atLen {
			t.Errorf("%s: Len after scheduling = %d, want %d", tc.name, batchLen, atLen)
		}
		if !slices.Equal(batched, individual) {
			t.Errorf("%s: batch order %v, individual At order %v", tc.name, batched, individual)
		}
		if tc.want != nil {
			var items []int
			for _, v := range batched {
				if v >= 0 && v < 100 {
					items = append(items, v)
				}
			}
			if !slices.Equal(items, tc.want) {
				t.Errorf("%s: batch item order = %v, want %v", tc.name, items, tc.want)
			}
		}
	}
}

// TestScheduleBatchChecksEagerly pins that a batch item in the past or a
// nil function panics at the ScheduleBatch call, before anything is
// queued.
func TestScheduleBatchChecksEagerly(t *testing.T) {
	mustPanic := func(name string, f func(e *Engine)) {
		t.Helper()
		e := New()
		e.Advance(10)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f(e)
		}()
		if e.Len() != 0 || len(e.heap) != 0 {
			t.Errorf("%s: queued Len=%d heap=%d before panicking", name, e.Len(), len(e.heap))
		}
	}
	times := []Time{10, 12, 9, 11}
	mustPanic("item before now", func(e *Engine) {
		e.ScheduleBatch(len(times), func(i int) Time { return times[i] }, func(int) {})
	})
	mustPanic("nil at", func(e *Engine) { e.ScheduleBatch(1, nil, func(int) {}) })
	mustPanic("nil fire", func(e *Engine) { e.ScheduleBatch(1, func(int) Time { return 10 }, nil) })
}

// TestSortedBatchDrainKeepsOneNode is the regression test for bulk
// feeds: draining a sorted 100k-item batch whose items each schedule one
// completion keeps the physical heap at the run's single node plus the
// in-flight completions, and allocates O(1) rather than per item.
func TestSortedBatchDrainKeepsOneNode(t *testing.T) {
	const n = 100_000
	e := New()
	inFlight, maxHeap, fired := 0, 0, 0
	complete := func() { inFlight-- }
	at := func(i int) Time { return Time(i / 3) } // ties in threes
	arrive := func(i int) {
		fired++
		if got, want := len(e.heap), 1+inFlight; i < n-1 && got != want {
			t.Fatalf("item %d: heap holds %d nodes, want run head + %d completions = %d", i, got, inFlight, want)
		}
		if len(e.heap) > maxHeap {
			maxHeap = len(e.heap)
		}
		inFlight++
		e.Schedule(Time(1+i%50), complete)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.ScheduleBatch(n, at, arrive)
	if e.Len() != n || len(e.heap) != 1 {
		t.Fatalf("after batch: Len=%d heap=%d, want %d and 1", e.Len(), len(e.heap), n)
	}
	e.RunAll()
	runtime.ReadMemStats(&after)

	if fired != n || inFlight != 0 || e.Len() != 0 {
		t.Fatalf("fired=%d inFlight=%d Len=%d, want %d/0/0", fired, inFlight, e.Len(), n)
	}
	if maxHeap > 200 {
		t.Errorf("heap peaked at %d nodes, want about the completion window", maxHeap)
	}
	// The slab and heap grow to the completion window in O(log) steps;
	// per-item allocation would be ~n.
	if allocs := after.Mallocs - before.Mallocs; allocs > 100 {
		t.Errorf("sorted batch of %d allocated %d times, want O(1)", n, allocs)
	}
}

// TestEveryStopIsIdempotentAndStaleStopInert covers the pooled-ticker
// hazards: stopping twice is a no-op, and a stop function retained after
// its ticker was recycled into a new Every must not stop the new timer.
func TestEveryStopIsIdempotentAndStaleStopInert(t *testing.T) {
	e := New()
	ticksA := 0
	stopA := e.Every(10, func() { ticksA++ })
	e.Run(30)
	stopA()
	stopA() // idempotent
	if ticksA != 3 {
		t.Fatalf("ticksA = %d, want 3", ticksA)
	}

	// Recycle until the pool hands back a node; whichever node backs B,
	// the stale stopA must not affect it.
	ticksB := 0
	stopB := e.Every(10, func() { ticksB++ })
	stopA() // stale: must be inert
	e.Run(60)
	if ticksB != 3 {
		t.Fatalf("ticksB = %d after stale stop, want 3 (stale stopA acted on B's ticker)", ticksB)
	}
	stopB()
	e.Run(100)
	if ticksB != 3 {
		t.Fatalf("ticksB = %d after real stop, want 3", ticksB)
	}
}

// TestEveryStopInsideCallbackThenNewEvery exercises the in-flight release
// path: a callback stops its own ticker and immediately starts a new
// periodic timer (possibly reusing the pooled node); the old chain must
// end and the new one must tick alone.
func TestEveryStopInsideCallbackThenNewEvery(t *testing.T) {
	e := New()
	oldTicks, newTicks := 0, 0
	var stopOld func()
	stopOld = e.Every(10, func() {
		oldTicks++
		if oldTicks == 2 {
			stopOld()
			e.Every(7, func() { newTicks++ })
		}
	})
	e.Run(41)
	if oldTicks != 2 {
		t.Fatalf("oldTicks = %d, want 2 (stopped from within)", oldTicks)
	}
	// New ticker started at t=20, so ticks at 27, 34, 41.
	if newTicks != 3 {
		t.Fatalf("newTicks = %d, want 3", newTicks)
	}
}

// TestManyEveryTimersReusePool spins up and stops many timers in
// sequence; the pool should keep slab/ticker churn flat, and every timer
// must tick exactly its share.
func TestManyEveryTimersReusePool(t *testing.T) {
	e := New()
	total := 0
	for i := 0; i < 500; i++ {
		stop := e.Every(5, func() { total++ })
		e.Run(e.Now() + 10)
		stop()
	}
	if total != 1000 {
		t.Fatalf("total ticks = %d, want 1000 (2 per timer)", total)
	}
	if e.Len() != 0 {
		t.Fatalf("Len() = %d, want 0 (all timers cancelled)", e.Len())
	}
}

// TestAdvanceIgnoresCancelledEvents pins a lazy-cancellation edge: a
// cancelled event earlier than the advance target must not trip the
// pending-event panic, matching the reference kernel where Cancel
// physically removed the entry.
func TestAdvanceIgnoresCancelledEvents(t *testing.T) {
	e := New()
	id := e.Schedule(10, func() {})
	e.Schedule(100, func() {})
	e.Cancel(id)
	e.Advance(50) // must not panic: only the cancelled event is earlier
	if e.Now() != 50 {
		t.Fatalf("Now() = %d, want 50", e.Now())
	}
	defer func() {
		if recover() == nil {
			t.Error("Advance over the live pending event did not panic")
		}
	}()
	e.Advance(60)
}

// TestEventIDsNeverZeroAndUnique samples the packed-ID scheme: ids are
// nonzero, positive, and distinct among concurrently pending events.
func TestEventIDsNeverZeroAndUnique(t *testing.T) {
	e := New()
	seen := make(map[EventID]bool)
	for i := 0; i < 5000; i++ {
		id := e.Schedule(Time(i), func() {})
		if id == 0 {
			t.Fatal("zero EventID issued")
		}
		if id < 0 {
			t.Fatalf("negative EventID %d issued", id)
		}
		if seen[id] {
			t.Fatalf("duplicate pending EventID %d", id)
		}
		seen[id] = true
	}
}
