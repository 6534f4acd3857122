// Package stream feeds simulations from online task sources instead of
// materialized job slices: a Source yields jobs one at a time in
// nondecreasing submit order, and a Feeder attaches each source to the
// instance engine as one kernel lane (sim.Engine.Lane), so a run over
// ten million tasks holds one record per lane, not the trace.
//
// # Byte-identity by construction
//
// A streamed run must be byte-identical to the same workload run
// materialized. The kernel breaks same-time ties by issue order, and a
// materialized attach issues a provider's start hook and then its whole
// job slice as one ScheduleBatch, whose items take consecutive issue
// numbers. A lane draws its single issue number s at the same point of
// the attach — after the start hook, which it runs with the first
// record's submit time — and keys each record (submit, s). Only the
// lane's current record is queued; when it fires, the lane pulls its
// successor and queues it under the same s. Every other event was
// issued either before s or after it, so every record pops exactly
// where the materialized item would: same-time ties against other
// lanes, dynamic events and window snapshots resolve as in the
// materialized run, whatever delays the attached systems schedule.
//
// A materialized run also schedules submissions past its horizon, which
// never fire; a lane simply leaves them in its source. That cannot
// change the order of anything that fires, but collectors that count a
// materialized slice up front report those jobs as submitted, so result
// identity holds for sources drained within the horizon.
//
// # Bounded memory
//
// A lane holds exactly one record, the queued one: its successor is
// pulled only after it is delivered. A streamed run's residency is
// therefore one record per lane plus the jobs in flight, which belong
// to the simulated system. Resident and MaxResident report the
// lane-side count so tests can pin the bound. Gen is O(1) in the task
// count on the source side; FromJobs replays a materialized slice.
package stream

import (
	"fmt"
	"io"

	"repro/internal/job"
)

// Source yields jobs in nondecreasing Submit order and returns io.EOF
// after the last one. Implementations need not be safe for concurrent
// use; a lane pulls from a single goroutine.
type Source interface {
	Next() (job.Job, error)
}

// sliceSource iterates a materialized job slice.
type sliceSource struct {
	jobs []job.Job
	i    int
}

// FromJobs exposes a materialized, submit-sorted job slice as a Source.
// It replays existing workloads through the streamed path; order is
// validated by the lane on pull.
func FromJobs(jobs []job.Job) Source {
	return &sliceSource{jobs: jobs}
}

func (s *sliceSource) Next() (job.Job, error) {
	if s.i >= len(s.jobs) {
		return job.Job{}, io.EOF
	}
	j := s.jobs[s.i]
	s.i++
	return j, nil
}

// validate applies the per-record admission checks shared by every
// ingestion path: structural job validity plus nondecreasing submit
// order against the previous record.
func validate(j *job.Job, lastSubmit int64, seeded bool) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if seeded && j.Submit < lastSubmit {
		return fmt.Errorf("job %d: submit %d before previous %d (sources must be submit-sorted)",
			j.ID, j.Submit, lastSubmit)
	}
	return nil
}
