package stream

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/job"
	"repro/internal/sim"
)

// Feeder attaches one instance's stream lanes to its engine and keeps
// their shared instrumentation: the first lane failure, and how many
// records were delivered and are resident. Not safe for concurrent use;
// the engine drives every lane from its own goroutine.
type Feeder struct {
	engine *sim.Engine
	err    error

	resident    int
	maxResident int
	delivered   int
}

// NewFeeder creates a Feeder over the instance engine.
func NewFeeder(engine *sim.Engine) *Feeder {
	return &Feeder{engine: engine}
}

// lane is one attached Source: a kernel lane whose current event
// delivers cur and then pulls its successor.
type lane struct {
	f       *Feeder
	name    string
	src     Source
	deliver func(*job.Job)
	cur     *job.Job
}

// Attach adds a job lane over src. It peeks the first record — a live
// source blocks here until the record or the end of the stream arrives
// — runs start with that record's submit time, and then queues the
// record as a kernel lane (sim.Engine.Lane), so the lane's issue number
// follows everything start issued, exactly as a materialized attach
// orders its start hook before its ScheduleBatch. Each record is
// validated, copied and handed to deliver at its submit time. A source
// that is empty at attach issues nothing, start included. Errors at
// attach are returned; a later failure is recorded for Err and stops
// the engine.
func (f *Feeder) Attach(name string, src Source, start func(first sim.Time), deliver func(*job.Job)) error {
	l := &lane{f: f, name: name, src: src, deliver: deliver}
	ok, err := l.pull()
	if !ok || err != nil {
		return err
	}
	first := sim.Time(l.cur.Submit)
	if now := f.engine.Now(); first < now {
		return fmt.Errorf("stream: lane %s: first record at t=%d is before now %d", name, first, now)
	}
	if start != nil {
		start(first)
	}
	f.engine.Lane(first, l.step)
	return nil
}

// pull reads, validates and copies the lane's next record into cur. ok
// is false at the end of the source.
func (l *lane) pull() (ok bool, err error) {
	j, err := l.src.Next()
	if errors.Is(err, io.EOF) {
		return false, nil
	}
	if err == nil {
		var last int64
		if l.cur != nil {
			last = l.cur.Submit
		}
		err = validate(&j, last, l.cur != nil)
	}
	if err != nil {
		return false, fmt.Errorf("stream: lane %s: %w", l.name, err)
	}
	l.cur = &j
	if l.f.resident++; l.f.resident > l.f.maxResident {
		l.f.maxResident = l.f.resident
	}
	return true, nil
}

// step is the lane's kernel step: deliver the current record, then pull
// and name the next one.
func (l *lane) step() (sim.Time, bool) {
	l.f.resident--
	l.f.delivered++
	l.deliver(l.cur)
	ok, err := l.pull()
	if err != nil {
		l.f.fail(err)
	}
	if !ok {
		return 0, false
	}
	return sim.Time(l.cur.Submit), true
}

// Err reports the first lane failure after attach. A failed feeder stops
// the engine; drivers must check Err after the run and discard the
// partial result.
func (f *Feeder) Err() error { return f.err }

// Resident reports the records the lanes currently hold: each lane's
// queued record, at most one per lane.
func (f *Feeder) Resident() int { return f.resident }

// MaxResident reports the high-water mark of Resident over the run; it
// never exceeds the lane count, whatever the total task count.
func (f *Feeder) MaxResident() int { return f.maxResident }

// Delivered reports how many records have been delivered so far.
func (f *Feeder) Delivered() int { return f.delivered }

// fail records the first error and halts the engine: a lane failure
// means the simulation is missing input and no further event order is
// meaningful.
func (f *Feeder) fail(err error) {
	if f.err == nil {
		f.err = err
	}
	f.engine.Stop()
}
