package systems

import (
	"context"
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/stream"
)

// boundedCount is the task volume of the bounded-memory stress run.
const boundedCount = 1_000_000

// boundedGen returns the O(1) generator source for the stress run; two
// calls yield byte-identical streams, which is what lets the streamed
// and materialized runs below share a reference result.
func boundedGen() *stream.Gen {
	return stream.NewGen(stream.GenConfig{
		Seed:             42,
		Count:            boundedCount,
		MeanInterarrival: 1,
		MaxRuntime:       10,
		MaxNodes:         4,
	})
}

// TestMillionTaskBoundedMemory is the streamed path's capstone guarantee: a
// one-million-task streamed run holds one record per lane resident — not
// the million a materialized slice pins — while producing the identical
// result at comparable wall time.
func TestMillionTaskBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("1e6-task run; skipped in -short mode")
	}
	// Last submit ≈ count × mean interarrival (1s); slack covers the
	// interarrival jitter plus the longest runtimes draining.
	const horizon = 2_200_000
	wl := Workload{
		Name: "org", Class: job.HTC, FixedNodes: 64,
		Params: policy.HTCDefaults(16, 1.5),
	}
	opts := Options{Horizon: horizon, Seed: 7}

	// Materialized baseline: drain the generator into a slice up front
	// and run the blocking path.
	jobs := make([]job.Job, 0, boundedCount)
	src := boundedGen()
	for {
		j, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if last := jobs[len(jobs)-1].Submit; last >= horizon {
		t.Fatalf("last submit %d is past the horizon %d; identity needs drained-within-horizon", last, horizon)
	}
	wlMat := wl
	wlMat.Jobs = jobs
	t0 := time.Now()
	want, err := SSP.Execute(context.Background(), []Workload{wlMat}, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	matDur := time.Since(t0)

	// Streamed run: the same jobs pulled from the generator as the
	// virtual clock advances.
	t1 := time.Now()
	feed := &Feed{Sources: map[string]stream.Source{"org": boundedGen()}}
	got, err := SSP.Execute(context.Background(), []Workload{wl}, opts, feed)
	if err != nil {
		t.Fatal(err)
	}
	streamDur := time.Since(t1)
	f := feed.Feeders[0]

	if !reflect.DeepEqual(got, want) {
		t.Errorf("streamed %d-task result diverged from materialized", boundedCount)
	}
	if f.Delivered() != boundedCount {
		t.Errorf("feeder delivered %d records, want %d", f.Delivered(), boundedCount)
	}

	// The bounded-memory claim, on the feeder's own instrumentation: the
	// resident high-water mark is the lane count, whatever the task count.
	if max := f.MaxResident(); max > 1 {
		t.Errorf("MaxResident = %d: want at most 1, the lane count, for %d tasks", max, boundedCount)
	}
	if f.Resident() != 0 {
		t.Errorf("feeder still holds %d records after drain", f.Resident())
	}

	// Wall-time parity: streaming must not cost more than 1.5× the
	// materialized run. The absolute slack absorbs scheduler noise when
	// the suite runs many packages concurrently; the typical ratio is ~1.
	limit := matDur + matDur/2 + 500*time.Millisecond
	t.Logf("streamed %v, materialized %v, limit %v", streamDur, matDur, limit)
	if streamDur > limit {
		t.Errorf("streamed run took %v vs materialized %v (limit %v)", streamDur, matDur, limit)
	}
}
