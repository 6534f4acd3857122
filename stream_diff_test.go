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
// (every HTC provider replayed as a stream.Source, MTC workflows as a
// feeder action lane) with the given feeder tuning on the given number
// of kernel partitions, returning the result and the run's feed.
func streamedPaperResult(t *testing.T, system string, feeder stream.Options, partitions int) (Result, *systems.Feed) {
	t.Helper()
	wls, err := PaperWorkloads(42)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := registry.Default.Descriptor(system)
	if !ok {
		t.Fatalf("%s has no registered descriptor", system)
	}
	feed := &systems.Feed{Options: feeder}
	res, err := d.Execute(context.Background(), CloneWorkloads(wls),
		Options{Horizon: TwoWeeks, Seed: 7, Partitions: partitions}, feed)
	if err != nil {
		t.Fatalf("%s streamed: %v", system, err)
	}
	return res, feed
}

// TestStreamedMatchesMaterialized is the streaming half of the kernel
// differential suite: for every system in testdata/kernel_golden.json,
// feeding the paper workloads through the bounded-lookahead streamed
// path must reproduce the materialized golden Result exactly — same
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
				got, _ := streamedPaperResult(t, system, stream.Options{}, p)
				if !reflect.DeepEqual(got, want[system]) {
					gotJSON, _ := json.MarshalIndent(got, "", "  ")
					wantJSON, _ := json.MarshalIndent(want[system], "", "  ")
					t.Errorf("P=%d streamed result diverged from materialized golden\ngot:\n%s\nwant:\n%s", p, gotJSON, wantJSON)
				}
			}
		})
	}
}

// TestStreamedStrideInvariance pins that the feeder's tuning knobs are
// invisible to results: stride and lookahead change when records are
// issued, never their order at equal times.
func TestStreamedStrideInvariance(t *testing.T) {
	base, _ := streamedPaperResult(t, "DawningCloud", stream.Options{}, 0)
	for _, opt := range []stream.Options{
		{Stride: 600, MinLookahead: 2 * 3600},
		{Stride: 6 * 3600, MinLookahead: 4 * 3600},
		{Stride: 24 * 3600, MinLookahead: 2 * 3600},
	} {
		got, _ := streamedPaperResult(t, "DawningCloud", opt, 0)
		if !reflect.DeepEqual(got, base) {
			t.Errorf("stride %d / lookahead %d changed the result", opt.Stride, opt.MinLookahead)
		}
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

	// And the feeder must have delivered exactly that many records plus
	// one action per MTC workflow.
	_, feed := streamedPaperResult(t, "DCS", stream.Options{}, 0)
	f := feed.Feeders[0]
	htc, workflows := 0, 0
	for i := range wls {
		if wls[i].Class == job.HTC {
			htc += len(wls[i].Jobs)
		} else {
			workflows += len(systems.WorkflowGroups(wls[i].Jobs))
		}
	}
	if got, want := f.Delivered(), htc+workflows; got != want {
		t.Errorf("feeder delivered %d records, want %d (%d HTC jobs + %d workflows)", got, want, htc, workflows)
	}
	if f.Resident() != 0 {
		t.Errorf("feeder still holds %d records after drain", f.Resident())
	}
}
