package kernelbench

import (
	"context"
	"os"
	"testing"
)

// BenchmarkKernel is the kernel's tracked performance gate. It drives the
// comparative workload (DefaultEvents executed events per kernel) through
// the fast and reference kernels and a bulk feed of DefaultEvents sorted
// arrivals through the fast one, reports the headline metrics, writes
// BENCH_kernel.json (to $BENCH_KERNEL_JSON when set, else the package
// directory) and fails when the fast kernel breaks the checked-in budget
// in testdata/bench_budget.json. CI runs it with -benchtime 1x and
// uploads the JSON as an artifact, so the perf trajectory has data.
func BenchmarkKernel(b *testing.B) {
	var report Report
	for i := 0; i < b.N; i++ {
		report = Run(DefaultEvents)
	}
	b.ReportMetric(report.Fast.NsPerEvent, "fast-ns/event")
	b.ReportMetric(report.Fast.AllocsPerEvent, "fast-allocs/event")
	b.ReportMetric(report.Fast.EventsPerSec, "fast-events/sec")
	b.ReportMetric(report.Bulk.NsPerEvent, "bulk-ns/event")
	b.ReportMetric(report.Bulk.AllocsPerEvent, "bulk-allocs/event")
	b.ReportMetric(report.Ref.NsPerEvent, "ref-ns/event")
	b.ReportMetric(report.Ref.AllocsPerEvent, "ref-allocs/event")
	b.ReportMetric(report.Speedup, "speedup-x")

	path := os.Getenv("BENCH_KERNEL_JSON")
	if path == "" {
		path = "BENCH_kernel.json"
	}
	if err := report.WriteJSON(path); err != nil {
		b.Fatalf("write %s: %v", path, err)
	}
	b.Logf("kernel report written to %s\n%s", path, report.Text())

	budget, err := LoadBudget("testdata/bench_budget.json")
	if err != nil {
		b.Fatal(err)
	}
	if err := budget.Check(report); err != nil {
		b.Fatalf("budget regression: %v", err)
	}
}

// BenchmarkCluster is the federated-orchestration measurement: N=8 DCS
// provider instances behind one shared clock, one NASA-like provider
// per instance, round-robin routed. It writes BENCH_cluster.json (to
// $BENCH_CLUSTER_JSON when set, else the package directory); CI runs it
// with -benchtime 1x and uploads the JSON alongside BENCH_kernel.json.
func BenchmarkCluster(b *testing.B) {
	var report ClusterReport
	for i := 0; i < b.N; i++ {
		var err error
		report, err = RunCluster(context.Background(), DefaultClusterInstances, DefaultClusterDays)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(report.NsPerEvent, "cluster-ns/event")
	b.ReportMetric(report.AllocsPerEvent, "cluster-allocs/event")
	b.ReportMetric(report.EventsPerSec, "cluster-events/sec")

	path := os.Getenv("BENCH_CLUSTER_JSON")
	if path == "" {
		path = "BENCH_cluster.json"
	}
	if err := report.WriteJSON(path); err != nil {
		b.Fatalf("write %s: %v", path, err)
	}
	b.Logf("cluster report written to %s\n%s", path, report.Text())
}

// BenchmarkPartition is the multi-core gate: the actor workload driven
// once on a single engine and once split over one partition per CPU
// (capped at 8) through the lockstep driver. It writes
// BENCH_partition.json (to $BENCH_PARTITION_JSON when set, else the
// package directory) and fails on the budget in
// testdata/bench_budget.json — the allocation ceiling everywhere, the
// 3x speedup floor on >= 8-CPU runners (the CI partition-bench job's
// machine class; a laptop with fewer cores reports informationally).
func BenchmarkPartition(b *testing.B) {
	var report PartitionReport
	for i := 0; i < b.N; i++ {
		var err error
		report, err = RunPartition(context.Background(), DefaultEvents, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(report.Serial.EventsPerSec, "serial-events/sec")
	b.ReportMetric(report.Partitioned.EventsPerSec, "partitioned-events/sec")
	b.ReportMetric(report.Partitioned.AllocsPerEvent, "partitioned-allocs/event")
	b.ReportMetric(report.Speedup, "partition-speedup-x")

	path := os.Getenv("BENCH_PARTITION_JSON")
	if path == "" {
		path = "BENCH_partition.json"
	}
	if err := report.WriteJSON(path); err != nil {
		b.Fatalf("write %s: %v", path, err)
	}
	b.Logf("partition report written to %s\n%s", path, report.Text())

	budget, err := LoadBudget("testdata/bench_budget.json")
	if err != nil {
		b.Fatal(err)
	}
	if err := budget.CheckPartition(report); err != nil {
		b.Fatalf("budget regression: %v", err)
	}
}

// TestRunPartitionSmokes keeps the multi-core harness covered by plain
// `go test` at any CPU count: both legs must execute their full event
// budget and report positive throughput, and the partitioned drive must
// stay within the allocation ceiling.
func TestRunPartitionSmokes(t *testing.T) {
	r, err := RunPartition(context.Background(), 40_000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Partitions != 2 {
		t.Fatalf("partitions = %d, want 2", r.Partitions)
	}
	if r.Serial.Events < 40_000 || r.Partitioned.Events < 40_000 {
		t.Fatalf("events: serial %d, partitioned %d, want >= 40000 each", r.Serial.Events, r.Partitioned.Events)
	}
	if r.Serial.EventsPerSec <= 0 || r.Partitioned.EventsPerSec <= 0 || r.Speedup <= 0 {
		t.Fatalf("non-positive throughput: %+v", r)
	}
	budget, err := LoadBudget("testdata/bench_budget.json")
	if err != nil {
		t.Fatal(err)
	}
	if r.Partitioned.AllocsPerEvent > budget.MaxAllocsPerEvent {
		t.Errorf("partitioned driver allocates %.4f/event, budget %.4f",
			r.Partitioned.AllocsPerEvent, budget.MaxAllocsPerEvent)
	}
}

// TestRunClusterSmokes keeps the cluster harness covered by plain
// `go test`: a small federation must step events on every instance and
// report positive throughput.
func TestRunClusterSmokes(t *testing.T) {
	r, err := RunCluster(context.Background(), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Instances != 4 || r.Providers != 4 {
		t.Fatalf("sized %d instances / %d providers, want 4/4", r.Instances, r.Providers)
	}
	if r.Jobs <= 0 || r.Events <= int64(r.Jobs) {
		t.Fatalf("jobs %d, events %d: want events to dominate the job count", r.Jobs, r.Events)
	}
	if r.EventsPerSec <= 0 || r.NsPerEvent <= 0 {
		t.Fatalf("non-positive throughput: %+v", r)
	}
}

// TestRunSmokesBothKernels keeps the harness itself covered by plain `go
// test`: a small run must execute the same event count on both kernels,
// make progress on each, and allocate less per event on the fast one.
func TestRunSmokesBothKernels(t *testing.T) {
	r := Run(30_000)
	if r.Fast.Events != r.Ref.Events {
		t.Fatalf("kernels executed different event counts: fast %d, ref %d", r.Fast.Events, r.Ref.Events)
	}
	if r.Fast.Events < 30_000 {
		t.Fatalf("executed %d events, want >= 30000", r.Fast.Events)
	}
	if r.Fast.EventsPerSec <= 0 || r.Ref.EventsPerSec <= 0 {
		t.Fatalf("non-positive throughput: %+v", r)
	}
	if r.Fast.AllocsPerEvent >= r.Ref.AllocsPerEvent {
		t.Errorf("fast kernel allocates %.3f/event, reference %.3f/event — no reduction",
			r.Fast.AllocsPerEvent, r.Ref.AllocsPerEvent)
	}
	if r.Bulk.Events != 2*30_000 {
		t.Errorf("bulk feed executed %d events, want %d arrivals plus their completions", r.Bulk.Events, 2*30_000)
	}
}

// TestBudgetFileParsesAndIsEnforceable pins the checked-in budget: it
// must parse, demand a positive allocation ceiling, and reject an
// obviously regressed report.
func TestBudgetFileParsesAndIsEnforceable(t *testing.T) {
	b, err := LoadBudget("testdata/bench_budget.json")
	if err != nil {
		t.Fatal(err)
	}
	bad := Report{
		Fast: Kernel{AllocsPerEvent: b.MaxAllocsPerEvent + 1},
		Ref:  Kernel{AllocsPerEvent: 1},
	}
	if err := b.Check(bad); err == nil {
		t.Error("budget accepted a report over the allocation ceiling")
	}
	bulk := Report{Bulk: Kernel{AllocsPerEvent: b.MaxAllocsPerEvent + 1}, Speedup: b.MinSpeedup}
	if err := b.Check(bulk); err == nil {
		t.Error("budget accepted a bulk feed over the allocation ceiling")
	}
	slow := Report{Speedup: b.MinSpeedup / 2}
	if b.MinSpeedup > 0 {
		if err := b.Check(slow); err == nil {
			t.Error("budget accepted a report under the speedup floor")
		}
	}
	if b.MinPartitionSpeedup <= 0 {
		t.Fatal("budget carries no partition speedup floor")
	}
	slowPart := PartitionReport{CPUs: 8, Speedup: b.MinPartitionSpeedup / 2}
	if err := b.CheckPartition(slowPart); err == nil {
		t.Error("budget accepted a partition report under the speedup floor on an 8-CPU machine")
	}
	// Below the 8-CPU runner class the floor is informational.
	slowPart.CPUs = 2
	if err := b.CheckPartition(slowPart); err != nil {
		t.Errorf("speedup floor enforced on a 2-CPU machine: %v", err)
	}
	hungry := PartitionReport{CPUs: 2, Partitioned: Kernel{AllocsPerEvent: b.MaxAllocsPerEvent + 1}}
	if err := b.CheckPartition(hungry); err == nil {
		t.Error("budget accepted a partitioned report over the allocation ceiling")
	}
}

// TestLoadBudgetRejectsMissingOrInvalid covers the error paths.
func TestLoadBudgetRejectsMissingOrInvalid(t *testing.T) {
	if _, err := LoadBudget("testdata/no-such-file.json"); err == nil {
		t.Error("missing budget file accepted")
	}
	bad := t.TempDir() + "/bad.json"
	if err := os.WriteFile(bad, []byte(`{"max_allocs_per_event": 0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBudget(bad); err == nil {
		t.Error("zero allocation ceiling accepted")
	}
}
