package stream_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/systems"
)

// htc returns a valid one-node HTC job.
func htc(id int, submit int64) job.Job {
	return job.Job{ID: id, Name: fmt.Sprintf("t%d", id), Class: job.HTC, Submit: submit, Runtime: 30, Nodes: 1}
}

// failing is a Source that yields its jobs and then err.
type failing struct {
	jobs []job.Job
	err  error
}

func (s *failing) Next() (job.Job, error) {
	if len(s.jobs) == 0 {
		return job.Job{}, s.err
	}
	j := s.jobs[0]
	s.jobs = s.jobs[1:]
	return j, nil
}

// TestLaneFailureStopsRun pins how a bad record ends a streamed run: a
// record out of submit order, an invalid job or a source error stops
// the engine before any later record is delivered, and Execute returns
// the error. A bad first record fails the attach itself.
func TestLaneFailureStopsRun(t *testing.T) {
	invalid := htc(3, 20)
	invalid.Nodes = 0
	boom := errors.New("boom")
	cases := []struct {
		name   string
		src    func() stream.Source
		want   string
		before int // records delivered before the failure
	}{
		{"out of order", func() stream.Source {
			return stream.FromJobs([]job.Job{htc(1, 10), htc(2, 20), htc(3, 15), htc(4, 30)})
		}, "submit 15 before previous 20", 2},
		{"invalid job", func() stream.Source {
			return stream.FromJobs([]job.Job{htc(1, 10), htc(2, 20), invalid, htc(4, 30)})
		}, "nodes", 2},
		{"source error", func() stream.Source {
			return &failing{jobs: []job.Job{htc(1, 10)}, err: boom}
		}, "boom", 1},
		{"bad first record", func() stream.Source {
			return stream.FromJobs([]job.Job{invalid, htc(4, 30)})
		}, "nodes", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.New()
			f := stream.NewFeeder(e)
			var got []int
			err := f.Attach("org", tc.src(), nil, func(j *job.Job) { got = append(got, j.ID) })
			if err == nil {
				e.RunAll()
				err = f.Err()
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "lane org") {
				t.Fatalf("error %v, want one naming lane org and %q", err, tc.want)
			}
			if len(got) != tc.before || f.Delivered() != tc.before {
				t.Errorf("delivered %v (count %d), want the %d records before the failure", got, f.Delivered(), tc.before)
			}

			wl := systems.Workload{Name: "org", Class: job.HTC, FixedNodes: 4, Params: policy.HTCDefaults(4, 1.5)}
			feed := &systems.Feed{Sources: map[string]stream.Source{"org": tc.src()}}
			_, err = systems.SSP.Execute(context.Background(), []systems.Workload{wl}, systems.Options{Horizon: 3600}, feed)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Execute returned %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
}

// TestEmptyLaneIssuesNothing pins that a source empty at attach queues
// nothing, its start hook included.
func TestEmptyLaneIssuesNothing(t *testing.T) {
	e := sim.New()
	f := stream.NewFeeder(e)
	started := false
	if err := f.Attach("org", stream.FromJobs(nil), func(sim.Time) { started = true }, func(*job.Job) {
		t.Error("empty lane delivered a record")
	}); err != nil {
		t.Fatal(err)
	}
	if started || e.Len() != 0 || f.MaxResident() != 0 {
		t.Errorf("empty lane: start ran %v, Len %d, MaxResident %d; want nothing issued", started, e.Len(), f.MaxResident())
	}
}

// TestLaneTieOrder pins ordering by construction: records of two lanes
// tied at one instant fire in attach order, after events issued before
// the lanes, and before every event created later for that instant —
// one created before the instant, and one created at it by the lanes'
// own deliveries, in that order.
// Each lane's start hook is issued before its first record.
func TestLaneTieOrder(t *testing.T) {
	e := sim.New()
	f := stream.NewFeeder(e)
	var order []string
	e.At(5, func() { order = append(order, "pre") })
	for _, name := range []string{"a", "b"} {
		src := stream.FromJobs([]job.Job{htc(1, 5), htc(2, 5), htc(3, 9)})
		start := func(first sim.Time) {
			e.At(first, func() { order = append(order, name+"-start") })
		}
		err := f.Attach(name, src, start, func(j *job.Job) {
			order = append(order, fmt.Sprintf("%s%d", name, j.ID))
			if name == "a" && j.ID == 1 {
				e.At(e.Now(), func() { order = append(order, "child") })
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	e.At(0, func() { e.At(5, func() { order = append(order, "dynamic") }) })
	e.RunAll()
	want := []string{"pre", "a-start", "a1", "a2", "b-start", "b1", "b2", "dynamic", "child", "a3", "b3"}
	if !slices.Equal(order, want) {
		t.Errorf("fired %v, want %v", order, want)
	}
	if f.MaxResident() != 2 || f.Resident() != 0 || f.Delivered() != 6 {
		t.Errorf("MaxResident %d Resident %d Delivered %d, want 2/0/6", f.MaxResident(), f.Resident(), f.Delivered())
	}
}

// TestLiveLaneBlocksAtAttach pins that a live lane peeks its first
// record at attach: Attach waits for the first push, then runs the start
// hook with its submit time, and Fail unblocks a waiting Attach.
func TestLiveLaneBlocksAtAttach(t *testing.T) {
	attach := func(src *stream.LiveSource) (chan error, *sim.Time) {
		first := new(sim.Time)
		*first = -1
		done := make(chan error, 1)
		go func() {
			f := stream.NewFeeder(sim.New())
			done <- f.Attach("live", src, func(t sim.Time) { *first = t }, func(*job.Job) {})
		}()
		return done, first
	}

	src := stream.NewLiveSource(4)
	done, first := attach(src)
	select {
	case err := <-done:
		t.Fatalf("Attach returned %v before the first record arrived", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := src.TryPush(htc(1, 42)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if *first != 42 {
		t.Errorf("start hook saw %d, want the first record's submit 42", *first)
	}

	src = stream.NewLiveSource(4)
	done, _ = attach(src)
	src.Fail(errors.New("aborted"))
	if err := <-done; err == nil || !strings.Contains(err.Error(), "aborted") {
		t.Errorf("Attach after Fail returned %v, want the abort error", err)
	}
}

// TestLiveLanesInterleaved feeds two live lanes from one producer as a
// single submit-sorted stream in which every run of one lane's records
// between two records of the other holds gap records. With gap at most
// the buffer the run finishes and delivers in stream order. A longer
// gap stalls the producer behind the full buffer of the lane the engine
// is not waiting on; mid-stream that lane has already pulled the first
// record of the gap, so the stall needs gap buffer+2.
func TestLiveLanesInterleaved(t *testing.T) {
	const buffer = 3
	for _, tc := range []struct {
		gap      int
		finishes bool
	}{{buffer, true}, {buffer + 2, false}} {
		t.Run(fmt.Sprintf("gap=%d", tc.gap), func(t *testing.T) {
			// a0, b0 ... b(gap-1), a1, b(gap) ... : lane a every gap+1 records.
			type rec struct {
				lane string
				j    job.Job
			}
			var recs []rec
			for i := 0; i < 8*(tc.gap+1); i++ {
				lane := "b"
				if i%(tc.gap+1) == 0 {
					lane = "a"
				}
				recs = append(recs, rec{lane, htc(i, int64(i))})
			}
			srcs := map[string]*stream.LiveSource{"a": stream.NewLiveSource(buffer), "b": stream.NewLiveSource(buffer)}

			// A stall shows as the producer's deadline; a finishing run
			// gets ample time even on a loaded machine.
			wait := 300 * time.Millisecond
			if tc.finishes {
				wait = 30 * time.Second
			}
			ctx, cancel := context.WithTimeout(context.Background(), wait)
			defer cancel()
			produced := make(chan error, 1)
			go func() {
				for _, r := range recs {
					if err := srcs[r.lane].Push(ctx, r.j); err != nil {
						produced <- err
						return
					}
				}
				for _, s := range srcs {
					_ = s.Close()
				}
				produced <- nil
			}()

			e := sim.New()
			f := stream.NewFeeder(e)
			var got []int
			ran := make(chan error, 1)
			go func() {
				for _, lane := range []string{"a", "b"} {
					if err := f.Attach(lane, srcs[lane], nil, func(j *job.Job) { got = append(got, j.ID) }); err != nil {
						ran <- err
						return
					}
				}
				e.RunAll()
				ran <- f.Err()
			}()

			err := <-produced
			if !tc.finishes {
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("producer returned %v, want it stalled behind a full buffer", err)
				}
				for _, s := range srcs {
					s.Fail(err)
				}
				if err := <-ran; err == nil {
					t.Error("stalled run finished without an error")
				}
				return
			}
			if err != nil {
				t.Fatalf("producer: %v", err)
			}
			if err := <-ran; err != nil {
				t.Fatal(err)
			}
			if len(got) != len(recs) {
				t.Fatalf("delivered %d records, want %d", len(got), len(recs))
			}
			for i, id := range got {
				if id != i {
					t.Fatalf("delivery %d was record %d, want stream order", i, id)
				}
			}
			if f.MaxResident() > 2 {
				t.Errorf("MaxResident %d, want at most the 2 lanes", f.MaxResident())
			}
		})
	}
}
