package sim

import (
	"testing"
)

// FuzzEventOrder feeds arbitrary byte programs to the kernel — schedule,
// cancel, run-segment, foreign-cancel, batch and lane opcodes — and
// checks the heap's core invariants on whatever schedule results:
//
//   - every event fires at the time it was scheduled for;
//   - events pop in nondecreasing virtual time;
//   - same-time events pop FIFO (in schedule order), batch and lane
//     items included, a lane's items taking the issue order of the
//     moment the lane was queued;
//   - exactly the scheduled-minus-cancelled events fire;
//   - after every op, Len equals scheduled minus fired minus cancelled,
//     less the lane items not yet queued behind each lane's current one.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 10, 0, 10, 0, 5, 1, 0, 2, 20})
	f.Add([]byte{0, 255, 0, 0, 0, 0, 1, 9, 3, 0, 0, 7})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 1, 1, 1, 1, 1, 2, 255})
	// Batches: sorted with ties and items at now, then unsorted, with
	// events and cancels between them.
	f.Add([]byte{0, 3, 4, 0x85, 0, 1, 0, 2, 3, 4, 3, 0, 2, 7, 1, 0, 4, 0x04, 9, 0, 9, 3, 1, 2, 2, 1})
	f.Add([]byte{4, 0x8f, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 0, 0, 1, 2, 3, 2, 5, 4, 3, 30, 20, 10, 0})
	// Lanes: tied with At events and a batch, fed across run segments.
	f.Add([]byte{0, 2, 5, 4, 0, 2, 0, 1, 0, 2, 4, 0x82, 0, 2, 1, 5, 2, 3, 3, 0, 2, 1, 0, 1, 2, 9})
	f.Add([]byte{5, 15, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 0, 0, 2, 4, 5, 0, 0, 0, 2, 255})
	f.Fuzz(func(t *testing.T, program []byte) {
		e := New()
		type firing struct {
			time, want Time
			seq        int
		}
		var fired []firing
		var ids []EventID
		seq := 0
		scheduled, cancelled := 0, 0
		backlog := 0 // lane items behind their lane's queued one

		step := 0
		next := func() (byte, bool) {
			if step >= len(program) {
				return 0, false
			}
			b := program[step]
			step++
			return b, true
		}
		for {
			op, ok := next()
			if !ok {
				break
			}
			arg, _ := next()
			switch op % 6 {
			case 0: // schedule at now+arg
				mySeq, want := seq, e.Now()+Time(arg)
				seq++
				scheduled++
				ids = append(ids, e.Schedule(Time(arg), func() {
					fired = append(fired, firing{time: e.Now(), want: want, seq: mySeq})
				}))
			case 1: // cancel the arg-th issued id
				if len(ids) > 0 {
					if e.Cancel(ids[int(arg)%len(ids)]) {
						cancelled++
					}
				}
			case 2: // run a bounded segment
				e.Run(e.Now() + Time(arg))
			case 3: // cancel a foreign id; must never report success
				if e.Cancel(EventID(int64(arg)*1_000_003 + 1<<40)) {
					t.Fatalf("cancel of foreign id reported success")
				}
			case 4: // batch of 1+arg%16 items, one time byte each
				// The high bit makes the bytes gaps of a sorted run (zero
				// gaps tie); otherwise they are offsets from now, in any
				// order. Either way an item may land at now.
				n := 1 + int(arg%16)
				times := make([]Time, n)
				t0 := e.Now()
				for i := range times {
					b, _ := next()
					if arg&0x80 != 0 {
						t0 += Time(b % 4)
						times[i] = t0
					} else {
						times[i] = e.Now() + Time(b%32)
					}
				}
				seq0 := seq
				seq += n
				scheduled += n
				e.ScheduleBatch(n, func(i int) Time { return times[i] }, func(i int) {
					fired = append(fired, firing{time: e.Now(), want: times[i], seq: seq0 + i})
				})
			case 5: // lane of 1+arg%16 items, fed lazily; each byte is a gap
				// (zero gaps tie), so the first item may land at now
				n := 1 + int(arg%16)
				times := make([]Time, n)
				t0 := e.Now()
				for i := range times {
					b, _ := next()
					t0 += Time(b % 4)
					times[i] = t0
				}
				seq0 := seq
				seq += n
				scheduled += n
				backlog += n - 1
				i := 0
				e.Lane(times[0], func() (Time, bool) {
					fired = append(fired, firing{time: e.Now(), want: times[i], seq: seq0 + i})
					if i++; i == n {
						return 0, false
					}
					backlog--
					return times[i], true
				})
			}
			if got, want := e.Len(), scheduled-len(fired)-cancelled-backlog; got != want {
				t.Fatalf("after op %d: Len() = %d, want scheduled %d - fired %d - cancelled %d - lane backlog %d = %d",
					op%6, got, scheduled, len(fired), cancelled, backlog, want)
			}
		}
		e.RunAll()

		if got, want := len(fired), scheduled-cancelled; got != want {
			t.Fatalf("fired %d events, want %d (scheduled %d - cancelled %d)", got, want, scheduled, cancelled)
		}
		for i := range fired {
			if fired[i].time != fired[i].want {
				t.Fatalf("event seq %d fired at t=%d, scheduled for t=%d", fired[i].seq, fired[i].time, fired[i].want)
			}
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].time < fired[i-1].time {
				t.Fatalf("pop order regressed: event %d at t=%d after t=%d", i, fired[i].time, fired[i-1].time)
			}
			if fired[i].time == fired[i-1].time && fired[i].seq < fired[i-1].seq {
				t.Fatalf("FIFO tie-break broken at t=%d: seq %d popped after seq %d",
					fired[i].time, fired[i].seq, fired[i-1].seq)
			}
		}
		if e.Len() != 0 {
			t.Fatalf("Len() = %d after drain, want 0", e.Len())
		}
	})
}

// firedTimes is a helper extracting execution times in order.
func runAndCollect(e *Engine, n int, delay func(i int) Time) []Time {
	var out []Time
	for i := 0; i < n; i++ {
		e.Schedule(delay(i), func() { out = append(out, e.Now()) })
	}
	e.RunAll()
	return out
}

// TestCancelPoppedAndForeignIDs is the property the fuzz target enforces
// in miniature, pinned deterministically: Cancel of an already-popped id,
// of a foreign id, of the zero id and of a negative id all report false
// and leave the queue fully functional.
func TestCancelPoppedAndForeignIDs(t *testing.T) {
	e := New()
	popped := e.Schedule(1, func() {})
	e.RunAll()
	for _, id := range []EventID{popped, 0, -1, 1 << 50, popped + 7} {
		if e.Cancel(id) {
			t.Errorf("Cancel(%d) = true, want false", id)
		}
	}
	// The queue must still order correctly after the bogus cancels.
	got := runAndCollect(e, 5, func(i int) Time { return Time(5 - i) })
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("order corrupted after bogus cancels: %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("fired %d, want 5", len(got))
	}
}

// TestCancelStaleIDAfterSlotReuse pins the generation guard: once an
// event fires and its slab slot is recycled by a new event, the old
// EventID must not cancel the new occupant.
func TestCancelStaleIDAfterSlotReuse(t *testing.T) {
	e := New()
	stale := e.Schedule(1, func() {})
	e.RunAll()

	fired := false
	fresh := e.Schedule(1, func() { fired = true })
	if fresh == stale {
		t.Fatalf("slot reuse produced a duplicate EventID %d", fresh)
	}
	if e.Cancel(stale) {
		t.Fatal("stale id cancelled a recycled slot's new event")
	}
	e.RunAll()
	if !fired {
		t.Fatal("event lost after stale-id cancel attempt")
	}
}

// TestCancelInsideCallbackOfSelf pins that an event cancelling its own id
// mid-execution is a no-op returning false (the event is already off the
// queue), matching the reference kernel.
func TestCancelInsideCallbackOfSelf(t *testing.T) {
	e := New()
	var id EventID
	var result, called bool
	id = e.Schedule(5, func() {
		called = true
		result = e.Cancel(id)
	})
	e.RunAll()
	if !called {
		t.Fatal("event did not fire")
	}
	if result {
		t.Error("self-cancel inside callback returned true, want false")
	}
}
