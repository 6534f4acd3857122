package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/registry"
	"repro/internal/systems"
)

// TestRunValidatesWorkloads pins DawningCloud's public boundary: the
// validating registry adapter over core.System rejects invalid input
// before the shared driver runs it.
func TestRunValidatesWorkloads(t *testing.T) {
	runner := registry.Describe(core.System(core.Config{}))
	bad := systems.Workload{
		Class:      job.HTC,
		Jobs:       []job.Job{{ID: 1, Submit: 0, Runtime: 1800, Nodes: 4}},
		FixedNodes: 8,
		Params:     policy.HTCDefaults(2, 1.5),
	}
	if _, err := runner.Run(context.Background(), []systems.Workload{bad}, systems.Options{}); err == nil {
		t.Error("invalid workload accepted")
	}
	if _, err := runner.Run(context.Background(), nil, systems.Options{}); err == nil {
		t.Error("empty workloads accepted")
	}
}
