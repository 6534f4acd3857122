package experiments

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/job"
	"repro/internal/scenario"
	"repro/internal/systems"
)

// TestSweepConcurrentCallers renders an HTC and an MTC sweep figure from
// concurrent goroutines, the -race check for the grid fan-out, and pins
// the plotted metric per class: completed jobs for HTC (whose tasks/second
// stays 0), tasks/second for MTC.
func TestSweepConcurrentCallers(t *testing.T) {
	var wg sync.WaitGroup
	arts := make([][]Artifact, 2)
	errs := make([]error, 2)
	for i, id := range []string{"fig10", "fig11"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arts[i], errs[i] = runPlan(42, 4, 0, id)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	htc, mtc := arts[0][0], arts[1][0]
	for _, b := range sweepInitials {
		for _, r := range sweepRatiosHTC {
			key := fmt.Sprintf("B%d_R%g", b, r)
			if tps := htc.Values["tps_"+key]; tps != 0 {
				t.Errorf("HTC point %s reports tasks/second %.2f, want 0", key, tps)
			}
			if perf, done := htc.Values["perf_"+key], htc.Values["completed_"+key]; perf != done || done == 0 {
				t.Errorf("HTC point %s plots %.2f, want completed jobs %.0f", key, perf, done)
			}
		}
		for _, r := range sweepRatiosMTC {
			key := fmt.Sprintf("B%d_R%g", b, r)
			if perf, tps := mtc.Values["perf_"+key], mtc.Values["tps_"+key]; perf != tps || tps == 0 {
				t.Errorf("MTC point %s plots %.2f, want tasks/second %.2f", key, perf, tps)
			}
		}
	}
}

// TestParallelMatchesSerial is the determinism contract: a parallel
// request must produce bit-identical artifact Values and text to the
// workers=1 reference on the same seed.
func TestParallelMatchesSerial(t *testing.T) {
	sa := render(t, 7, 4, 1, "all", "extensions")
	pa := render(t, 7, 4, runtime.NumCPU(), "all", "extensions")
	if len(sa) != len(pa) {
		t.Fatalf("artifact counts diverged: %d vs %d", len(sa), len(pa))
	}
	for i := range sa {
		if sa[i].ID != pa[i].ID {
			t.Errorf("artifact %d order diverged: %s vs %s", i, sa[i].ID, pa[i].ID)
		}
		if !reflect.DeepEqual(sa[i].Values, pa[i].Values) {
			t.Errorf("artifact %s Values diverged:\nserial:   %v\nparallel: %v",
				sa[i].ID, sa[i].Values, pa[i].Values)
		}
		if sa[i].Text != pa[i].Text {
			t.Errorf("artifact %s rendered text diverged", sa[i].ID)
		}
	}
}

// TestSweepDoesNotMutateBase: retuning grid points must never write
// through to the compiled workloads the grid cells clone.
func TestSweepDoesNotMutateBase(t *testing.T) {
	spec := studySpec(t, "fig11", 42, 4)
	spec.Sweep.Grid.B, spec.Sweep.Grid.R = []int{77}, []float64{3}
	c, err := scenario.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	montage := c.Workloads[2].Clone()
	if _, err := c.RunContext(context.Background(), 0, nil); err != nil {
		t.Fatal(err)
	}
	after := c.Workloads[2]
	if after.Params != montage.Params {
		t.Errorf("sweep mutated compiled params: %+v -> %+v", montage.Params, after.Params)
	}
	if !reflect.DeepEqual(after.Jobs, montage.Jobs) {
		t.Error("sweep mutated compiled jobs")
	}
}

// TestWorkloadCloneIsolation asserts the clone severs every backing
// array a struct copy would share.
func TestWorkloadCloneIsolation(t *testing.T) {
	orig := systems.Workload{
		Name:  "w",
		Class: job.MTC,
		Jobs: []job.Job{
			{ID: 1, Nodes: 1, Runtime: 5, Workflow: "wf"},
			{ID: 2, Nodes: 2, Runtime: 5, Deps: []int{1}, Workflow: "wf"},
		},
		FixedNodes: 4,
	}
	c := orig.Clone()
	c.Jobs[0].Nodes = 99
	c.Jobs[1].Deps[0] = 42
	c.Params.InitialNodes = 7
	if orig.Jobs[0].Nodes != 1 {
		t.Error("clone shares the job slice")
	}
	if orig.Jobs[1].Deps[0] != 1 {
		t.Error("clone shares a Deps slice")
	}
	if orig.Params.InitialNodes != 0 {
		t.Error("clone shares params")
	}
}

// TestArtifactsConcurrentWithExtensions runs one shared plan for the full
// artifact set from two goroutines alongside the extension studies, the
// widest -race surface the front end exposes: a plan is read-only once
// built, so a run's retries may execute it again.
func TestArtifactsConcurrentWithExtensions(t *testing.T) {
	if testing.Short() {
		t.Skip("full artifact set")
	}
	all, err := NewPlan(42, 4, []string{"all"})
	if err != nil {
		t.Fatal(err)
	}
	ext, err := NewPlan(42, 4, []string{"extensions"})
	if err != nil {
		t.Fatal(err)
	}
	results := make([][]Artifact, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for i, p := range []*Plan{all, all, ext} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = p.Run(context.Background(), 0, nil)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Error("concurrent runs of one plan rendered different artifacts")
	}
}
