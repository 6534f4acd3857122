package core

import (
	"context"
	"testing"

	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/systems"
)

func htcWorkload() systems.Workload {
	return systems.Workload{
		Name:  "htc",
		Class: job.HTC,
		Jobs: []job.Job{
			{ID: 1, Submit: 0, Runtime: 1800, Nodes: 4},
			{ID: 2, Submit: 600, Runtime: 1800, Nodes: 4},
			{ID: 3, Submit: 1200, Runtime: 1800, Nodes: 8},
		},
		FixedNodes: 8,
		Params:     policy.HTCDefaults(2, 1.5),
	}
}

func mtcWorkload() systems.Workload {
	return systems.Workload{
		Name:  "mtc",
		Class: job.MTC,
		Jobs: []job.Job{
			{ID: 1, Submit: 0, Runtime: 60, Nodes: 1, Class: job.MTC, Workflow: "w"},
			{ID: 2, Submit: 0, Runtime: 60, Nodes: 2, Class: job.MTC, Workflow: "w", Deps: []int{1}},
			{ID: 3, Submit: 0, Runtime: 60, Nodes: 1, Class: job.MTC, Workflow: "w", Deps: []int{2}},
		},
		FixedNodes: 2,
		Params:     policy.MTCDefaults(1, 2),
	}
}

func TestRunCompletesBothClasses(t *testing.T) {
	res, err := run(context.Background(), []systems.Workload{htcWorkload(), mtcWorkload()},
		Config{Options: systems.Options{Horizon: 6 * 3600}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.System != "DawningCloud" {
		t.Errorf("System = %s", res.System)
	}
	h, ok := res.Provider("htc")
	if !ok || h.Completed != 3 {
		t.Errorf("htc completed = %d, want 3", h.Completed)
	}
	m, ok := res.Provider("mtc")
	if !ok || m.Completed != 3 {
		t.Errorf("mtc completed = %d, want 3", m.Completed)
	}
	if m.TasksPerSecond <= 0 {
		t.Error("mtc throughput missing")
	}
}

// The MTC TRE starts with B=1 and expands via the policy; after the chain
// finishes it destroys itself, so its lease is bounded by a billed hour.
func TestMTCTREElasticityAndSelfDestroy(t *testing.T) {
	res, err := run(context.Background(), []systems.Workload{mtcWorkload()},
		Config{Options: systems.Options{Horizon: 24 * 3600}})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := res.Provider("mtc")
	// Task 2 needs 2 nodes: DR2 adds 1 on top of B=1. Both release at
	// self-destroy within the first hour: at most 2 billed node-hours.
	if m.NodeHours > 2 {
		t.Errorf("NodeHours = %.1f, want <= 2", m.NodeHours)
	}
	if m.NodesAdjusted == 0 {
		t.Error("expected adjustments from grant + destroy")
	}
}

func TestDeployDelaysShiftStartup(t *testing.T) {
	wl := htcWorkload()
	res, err := run(context.Background(), []systems.Workload{wl}, Config{
		Options:     systems.Options{Horizon: 6 * 3600},
		DeployDelay: 300,
		StartDelay:  60,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := res.Provider("htc")
	// Jobs queue until the TRE is Running at t=360; all still complete.
	if p.Completed != 3 {
		t.Errorf("completed = %d, want 3 despite deploy delay", p.Completed)
	}
}

func TestCapacityConstrainedCloudRejectsGrowth(t *testing.T) {
	wl := htcWorkload()
	// Pool of 6: B=2 fits, but the 8-node job can never run and DR
	// requests beyond 6 are rejected.
	res, err := run(context.Background(), []systems.Workload{wl},
		Config{Options: systems.Options{Horizon: 6 * 3600, PoolCapacity: 6}})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := res.Provider("htc")
	if p.Completed != 2 {
		t.Errorf("completed = %d, want 2 (8-node job starves)", p.Completed)
	}
	if res.RejectedRequests == 0 {
		t.Error("expected provisioning rejections")
	}
}

func TestEasyBackfillConfig(t *testing.T) {
	res, err := run(context.Background(), []systems.Workload{htcWorkload()}, Config{
		Options:      systems.Options{Horizon: 6 * 3600},
		EasyBackfill: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := res.Provider("htc")
	if p.Completed != 3 {
		t.Errorf("completed with backfill = %d, want 3", p.Completed)
	}
}

// Consolidation invariant: the consolidated run's total equals the sum of
// isolated runs on an unconstrained pool (no interference).
func TestConsolidationAdditivity(t *testing.T) {
	opts := systems.Options{Horizon: 6 * 3600}
	both, err := run(context.Background(), []systems.Workload{htcWorkload(), mtcWorkload()}, Config{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	h, err := run(context.Background(), []systems.Workload{htcWorkload()}, Config{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	m, err := run(context.Background(), []systems.Workload{mtcWorkload()}, Config{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := both.TotalNodeHours, h.TotalNodeHours+m.TotalNodeHours; got != want {
		t.Errorf("consolidated total = %.1f, want %.1f (sum of isolated runs)", got, want)
	}
}

// run executes DawningCloud materialized under cfg's knobs, as the
// validating registry adapter does once the workloads pass.
func run(ctx context.Context, workloads []systems.Workload, cfg Config) (systems.Result, error) {
	return System(cfg).Execute(ctx, workloads, cfg.Options, nil)
}
