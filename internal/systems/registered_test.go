package systems_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/registry"
	_ "repro/internal/spot" // registers ssp-spot's descriptor
	"repro/internal/systems"
)

// htc builds a deterministic 3-job HTC workload on 8 fixed nodes.
func htc(name string) systems.Workload {
	return systems.Workload{
		Name:  name,
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

// mtc builds a 3-task chain workflow whose widest task fits its 2-node RE.
func mtc(name string) systems.Workload {
	return systems.Workload{
		Name:  name,
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

// registered lists the descriptor-registered systems, in registration
// order.
func registered(t *testing.T) []string {
	t.Helper()
	names := registry.Default.Instanced()
	if len(names) < 5 {
		t.Fatalf("descriptor-registered systems = %v, want at least the five built-ins", names)
	}
	return names
}

// TestRunnersValidateWorkloads pins the public boundary: every
// descriptor-registered system's registry.Runner rejects invalid input
// even though the shared driver behind it no longer validates.
func TestRunnersValidateWorkloads(t *testing.T) {
	wide := htc("wide")
	wide.Jobs[2].Nodes = 9 // wider than FixedNodes=8
	noName := htc("")
	cases := []struct {
		name string
		wls  []systems.Workload
	}{
		{"no-workloads", nil},
		{"empty-name", []systems.Workload{noName}},
		{"duplicate-names", []systems.Workload{htc("a"), htc("a")}},
		{"htc-job-wider-than-fixed", []systems.Workload{wide}},
	}
	for _, name := range registered(t) {
		runner, _ := registry.Default.Lookup(name)
		for _, tc := range cases {
			if _, err := runner.Run(context.Background(), tc.wls, systems.Options{Horizon: 3600}); err == nil {
				t.Errorf("%s accepted %s", name, tc.name)
			}
		}
	}
}

// TestRunRejectsInvalidWorkloads pins the built-in DCS, SSP and DRP
// runners: each validating adapter rejects an unnamed workload.
func TestRunRejectsInvalidWorkloads(t *testing.T) {
	bad := htc("")
	for _, d := range []*systems.Descriptor{systems.DCS, systems.SSP, systems.DRP} {
		if _, err := registry.Describe(d).Run(context.Background(), []systems.Workload{bad}, systems.Options{Horizon: 3600}); err == nil {
			t.Errorf("%s runner accepted invalid workload", d.Name)
		}
	}
}

// TestPartitionedRunnersMatchSerial runs every descriptor-registered
// system over irregular provider sets at every feasible partition count
// and requires results identical to the serial run — including the
// configurations where the gate must fall back to serial rather than
// partition incorrectly: a capacity-bound pool, and an MTC provider whose
// widest task outgrows its fixed RE through the shared pool.
func TestPartitionedRunnersMatchSerial(t *testing.T) {
	var mixed []systems.Workload
	for i := 0; i < 6; i++ {
		if i%2 == 0 {
			mixed = append(mixed, htc(fmt.Sprintf("htc-%d", i)))
		} else {
			mixed = append(mixed, mtc(fmt.Sprintf("mtc-%d", i)))
		}
	}
	wide := mtc("mtc-wide")
	wide.FixedNodes = 1 // task 2 needs 2 nodes
	cases := []struct {
		name     string
		wls      []systems.Workload
		capacity int
	}{
		{"default-pool", mixed, 0},
		// 30 fits every initial RE (3x8 HTC + 3x2 MTC) but still marks
		// the run capacity-bound, which must force the serial path.
		{"capacity-bound", mixed, 30},
		{"wide-mtc", []systems.Workload{htc("htc"), wide}, 0},
	}
	for _, name := range registered(t) {
		runner, _ := registry.Default.Lookup(name)
		for _, tc := range cases {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				opts := systems.Options{Horizon: 6 * 3600, PoolCapacity: tc.capacity, Seed: 7}
				serial, err := runner.Run(context.Background(), tc.wls, opts)
				if err != nil {
					t.Fatalf("serial: %v", err)
				}
				for _, p := range []int{2, 3, 6} {
					opts.Partitions = p
					got, err := runner.Run(context.Background(), tc.wls, opts)
					if err != nil {
						t.Fatalf("P=%d: %v", p, err)
					}
					if !reflect.DeepEqual(got, serial) {
						t.Errorf("P=%d diverged from serial:\n got %+v\nwant %+v", p, got, serial)
					}
				}
			})
		}
	}
}
