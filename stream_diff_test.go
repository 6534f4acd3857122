package dawningcloud

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/job"
	"repro/internal/registry"
	"repro/internal/stream"
	"repro/internal/systems"
)

// streamedPaperResult runs the paper workloads through the streamed path
// on the given number of kernel partitions — every HTC provider pulled
// from an explicit stream.FromJobs source as a kernel lane, MTC
// workflows attached materialized — returning the result and the run's
// feed.
func streamedPaperResult(t *testing.T, system string, partitions int) (Result, *systems.Feed) {
	t.Helper()
	wls, err := PaperWorkloads(42)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := registry.Default.Descriptor(system)
	if !ok {
		t.Fatalf("%s has no registered descriptor", system)
	}
	feed := &systems.Feed{Sources: make(map[string]stream.Source)}
	for i := range wls {
		if wls[i].Class == job.HTC {
			feed.Sources[wls[i].Name] = stream.FromJobs(wls[i].Jobs)
		}
	}
	res, err := d.Execute(context.Background(), CloneWorkloads(wls),
		Options{Horizon: TwoWeeks, Seed: 7, Partitions: partitions}, feed)
	if err != nil {
		t.Fatalf("%s streamed: %v", system, err)
	}
	return res, feed
}

// TestStreamedMatchesMaterialized is the streaming half of the kernel
// differential suite: for every system in testdata/kernel_golden.json,
// feeding the paper workloads' HTC jobs through stream lanes must
// reproduce the materialized golden Result exactly — same
// tables, same adjustment counts, same tie-breaking. This is the
// byte-identity invariant of internal/stream, pinned end to end — and
// it must keep doing so when the streamed run is also partitioned
// (P=2, P=4), which is one more configuration of the same driver.
func TestStreamedMatchesMaterialized(t *testing.T) {
	data, err := os.ReadFile("testdata/kernel_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]Result
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	names := make([]string, 0, len(want))
	for system := range want {
		names = append(names, system)
	}
	sort.Strings(names)
	for _, system := range names {
		system := system
		t.Run(system, func(t *testing.T) {
			for _, p := range []int{1, 2, 4} {
				got, _ := streamedPaperResult(t, system, p)
				if !reflect.DeepEqual(got, want[system]) {
					gotJSON, _ := json.MarshalIndent(got, "", "  ")
					wantJSON, _ := json.MarshalIndent(want[system], "", "  ")
					t.Errorf("P=%d streamed result diverged from materialized golden\ngot:\n%s\nwant:\n%s", p, gotJSON, wantJSON)
				}
			}
		})
	}
}

// TestStreamedSourcesDrainFully pins the drained-within-horizon premise
// of the identity proof on the reference workloads themselves: every
// paper job is submitted before the two-week horizon, so the streamed
// runs above really did replay the whole workload.
func TestStreamedSourcesDrainFully(t *testing.T) {
	wls, err := PaperWorkloads(42)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := range wls {
		for k := range wls[i].Jobs {
			if wls[i].Jobs[k].Submit >= TwoWeeks {
				t.Fatalf("workload %s job %d submits at %d, past the horizon %d",
					wls[i].Name, wls[i].Jobs[k].ID, wls[i].Jobs[k].Submit, TwoWeeks)
			}
			total++
		}
	}
	if total == 0 {
		t.Fatal("paper workloads are empty")
	}

	// And the lanes must have delivered every HTC job.
	_, feed := streamedPaperResult(t, "DCS", 0)
	f := feed.Feeders[0]
	htc := 0
	for i := range wls {
		if wls[i].Class == job.HTC {
			htc += len(wls[i].Jobs)
		}
	}
	if got := f.Delivered(); got != htc {
		t.Errorf("lanes delivered %d records, want the %d HTC jobs", got, htc)
	}
	if f.Resident() != 0 {
		t.Errorf("lanes still hold %d records after drain", f.Resident())
	}
}
