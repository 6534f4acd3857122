package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/emulation"
	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/systems"
)

// TestCrossValidationEmulationVsSimulation is the methodological check
// behind the substitution documented in DESIGN.md: the paper evaluates via
// a wall-clock emulation; this repository's experiments run on a virtual
// clock. Both engines execute the same DSP policy over the same workload;
// completions must match exactly and consumption must agree within a
// tolerance covering the emulator's timer jitter (its scans are not
// phase-locked to the virtual clock).
func TestCrossValidationEmulationVsSimulation(t *testing.T) {
	var jobs []job.Job
	for i := 0; i < 20; i++ {
		jobs = append(jobs, job.Job{
			ID:      i + 1,
			Submit:  int64(i * 300),
			Runtime: 600,
			Nodes:   (i % 4) + 1,
		})
	}
	params := policy.HTCDefaults(4, 1.5)
	horizon := int64(4 * 3600)

	emu, err := emulation.Run(emulation.Config{
		Speedup: 30000,
		Jobs:    jobs,
		Params:  params,
		Horizon: horizon,
	})
	if err != nil {
		t.Fatalf("emulation: %v", err)
	}

	wl := systems.Workload{
		Name:       "emulated-htc",
		Class:      job.HTC,
		Jobs:       jobs,
		FixedNodes: job.MaxNodes(jobs),
		Params:     params,
	}
	des, err := run(context.Background(), []systems.Workload{wl}, Config{Options: systems.Options{Horizon: horizon}})
	if err != nil {
		t.Fatalf("simulation: %v", err)
	}
	p, ok := des.Provider("emulated-htc")
	if !ok {
		t.Fatal("provider missing from simulation")
	}

	if emu.Completed != p.Completed {
		t.Errorf("completed: emulation %d vs simulation %d", emu.Completed, p.Completed)
	}
	if p.NodeHours == 0 {
		t.Fatal("simulation recorded no consumption")
	}
	ratio := emu.NodeHours / p.NodeHours
	if math.Abs(ratio-1) > 0.35 {
		t.Errorf("consumption diverges: emulation %.1f vs simulation %.1f (ratio %.2f)",
			emu.NodeHours, p.NodeHours, ratio)
	}
}
