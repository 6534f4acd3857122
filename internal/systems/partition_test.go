package systems

import (
	"runtime"
	"testing"

	"repro/internal/job"
)

func TestPartitionCountResolution(t *testing.T) {
	tests := []struct {
		partitions, workloads, want int
	}{
		{0, 8, 0},                         // unset: serial
		{1, 8, 1},                         // explicit serial
		{4, 8, 4},                         // explicit
		{8, 3, 3},                         // clamped to workload count
		{-1, 5, min(runtime.NumCPU(), 5)}, // one per CPU, clamped
	}
	for _, tt := range tests {
		got := Options{Partitions: tt.partitions}.PartitionCount(tt.workloads)
		if got != tt.want {
			t.Errorf("PartitionCount(%d workloads) with Partitions=%d = %d, want %d",
				tt.workloads, tt.partitions, got, tt.want)
		}
	}
}

func TestChunkBoundsBalanceAndCover(t *testing.T) {
	// Workload job counts deliberately skewed: one heavy provider must
	// not starve later chunks of their guaranteed workload.
	sizes := []int{1000, 10, 10, 10, 10, 10, 10, 10}
	wls := make([]Workload, len(sizes))
	for i, n := range sizes {
		wls[i].Jobs = make([]job.Job, n)
	}
	for p := 1; p <= len(wls); p++ {
		bounds := chunkBounds(wls, p)
		if len(bounds) != p+1 {
			t.Fatalf("p=%d: %d bounds, want %d", p, len(bounds), p+1)
		}
		if bounds[0] != 0 || bounds[p] != len(wls) {
			t.Fatalf("p=%d: bounds %v do not cover [0,%d]", p, bounds, len(wls))
		}
		for k := 0; k < p; k++ {
			if bounds[k] >= bounds[k+1] {
				t.Fatalf("p=%d: empty or inverted chunk at %d: %v", p, k, bounds)
			}
		}
	}
	// The heavy first workload should claim a chunk of its own once
	// there are enough partitions for the rest.
	if b := chunkBounds(wls, 2); b[1] != 1 {
		t.Errorf("p=2 bounds = %v, want the heavy workload alone in chunk 0", b)
	}
}

func TestMTCFitsFixedGate(t *testing.T) {
	fits := tinyMTC() // widest task 2 nodes on a 2-node RE
	if !mtcFitsFixed([]Workload{tinyHTC(), fits}) {
		t.Error("fitting MTC workload reported as not fitting")
	}
	wide := tinyMTC()
	wide.Jobs[1].Nodes = 5 // exceeds FixedNodes=2: needs the shared pool
	if mtcFitsFixed([]Workload{wide}) {
		t.Error("over-wide MTC workload reported as fitting")
	}
}
