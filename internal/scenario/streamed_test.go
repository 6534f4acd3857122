package scenario

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/events"
	"repro/internal/job"
	"repro/internal/stream"
	"repro/internal/systems"
)

// captureSink collects events by type, safely across worker goroutines.
type captureSink struct {
	mu        sync.Mutex
	reports   []events.WindowReport
	summaries []events.WindowSummary
}

func (cs *captureSink) sink() events.Sink {
	return func(ev events.Event) {
		cs.mu.Lock()
		defer cs.mu.Unlock()
		switch e := ev.(type) {
		case events.WindowReport:
			cs.reports = append(cs.reports, e)
		case events.WindowSummary:
			cs.summaries = append(cs.summaries, e)
		}
	}
}

// TestStreamingBaselineMatchesPaperBaseline pins the scenario layer's
// half of the streamed byte-identity invariant: the streaming-baseline
// builtin (paper-baseline routed through the streamed path) reproduces
// paper-baseline's base results exactly, while additionally emitting
// one WindowReport per system per day and in-order cross-system
// WindowSummary events whose final window converges on the totals.
func TestStreamingBaselineMatchesPaperBaseline(t *testing.T) {
	want, err := Builtin("paper-baseline")
	if err != nil {
		t.Fatal(err)
	}
	wantRep, err := Run(want, 4)
	if err != nil {
		t.Fatal(err)
	}

	got, err := Builtin("streaming-baseline")
	if err != nil {
		t.Fatal(err)
	}
	var caught captureSink
	gotRep, err := RunContext(context.Background(), got, 4, caught.sink())
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(gotRep.Base, wantRep.Base) {
		t.Errorf("streamed base results diverged from materialized paper-baseline")
	}
	if !reflect.DeepEqual(gotRep.Summary, wantRep.Summary) {
		t.Errorf("streamed summary diverged: got %+v want %+v", gotRep.Summary, wantRep.Summary)
	}

	days := got.Days
	systemsN := len(got.Systems)
	if len(caught.reports) != days*systemsN {
		t.Errorf("got %d window reports, want %d (%d systems x %d days)",
			len(caught.reports), days*systemsN, systemsN, days)
	}
	if len(caught.summaries) != days {
		t.Fatalf("got %d window summaries, want %d", len(caught.summaries), days)
	}
	for i, sum := range caught.summaries {
		if sum.Index != i {
			t.Fatalf("summary %d has index %d; summaries must arrive in window order", i, sum.Index)
		}
	}
	final := caught.summaries[len(caught.summaries)-1]
	for i, system := range final.Systems {
		if want := wantRep.Base[system].TotalNodeHours; final.TotalNodeHours[i] != want {
			t.Errorf("final window total for %s = %g, want the run total %g", system, final.TotalNodeHours[i], want)
		}
	}
	if final.DSPSavedVsDCS != wantRep.Summary.DSPSavedVsDCS {
		t.Errorf("final window saving %g, want %g", final.DSPSavedVsDCS, wantRep.Summary.DSPSavedVsDCS)
	}

	// Per-system reports are monotone in every provider's consumption.
	perSystem := make(map[string][]events.WindowReport)
	for _, rep := range caught.reports {
		perSystem[rep.System] = append(perSystem[rep.System], rep)
	}
	for system, reps := range perSystem {
		for i := 1; i < len(reps); i++ {
			if reps[i].Index != reps[i-1].Index+1 {
				t.Fatalf("%s reports out of order: %d then %d", system, reps[i-1].Index, reps[i].Index)
			}
			for k := range reps[i].NodeHours {
				if reps[i].NodeHours[k] < reps[i-1].NodeHours[k] {
					t.Errorf("%s window %d provider %s consumption shrank: %g -> %g",
						system, reps[i].Index, reps[i].Providers[k], reps[i-1].NodeHours[k], reps[i].NodeHours[k])
				}
			}
		}
	}
}

// TestStreamingBaselinePartitionedWindows pins streamed × partitioned
// at the scenario layer: streaming-baseline split onto two kernel
// partitions per cell emits exactly the window_report/window_summary
// sequence and the base results of the serial run — window rows join
// in serial provider order at the lockstep barrier.
func TestStreamingBaselinePartitionedWindows(t *testing.T) {
	run := func(partitions int) (*Report, *captureSink) {
		spec, err := Builtin("streaming-baseline")
		if err != nil {
			t.Fatal(err)
		}
		spec.Partitions = partitions
		caught := &captureSink{}
		// One worker runs the cells in order, so the event sequence is
		// deterministic and comparable as a whole.
		rep, err := RunContext(context.Background(), spec, 1, caught.sink())
		if err != nil {
			t.Fatalf("P=%d: %v", partitions, err)
		}
		return rep, caught
	}
	serialRep, serial := run(1)
	rep, got := run(2)
	if len(serial.reports) == 0 || len(serial.summaries) == 0 {
		t.Fatal("serial run emitted no window events")
	}
	if !reflect.DeepEqual(got.reports, serial.reports) {
		t.Errorf("P=2 window reports diverged from P=1")
	}
	if !reflect.DeepEqual(got.summaries, serial.summaries) {
		t.Errorf("P=2 window summaries diverged from P=1")
	}
	if !reflect.DeepEqual(rep.Base, serialRep.Base) {
		t.Errorf("P=2 base results diverged from P=1")
	}
}

// TestLiveScenarioMatchesMaterialized feeds a live provider's tasks
// through a LiveSource attached to a compiled scenario and checks the
// run against the same jobs simulated materialized: online ingestion is
// invisible to results.
func TestLiveScenarioMatchesMaterialized(t *testing.T) {
	spec, err := ParseBytes([]byte(`{
  "name": "live-test",
  "days": 1,
  "systems": ["SSP"],
  "providers": [
    {"name": "org-live", "fixed_nodes": 16, "source": {"kind": "live"}}
  ],
  "stream": {"enabled": true, "window_seconds": 43200}
}`))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Live) != 1 || c.Live[0] != "org-live" {
		t.Fatalf("live providers = %v, want [org-live]", c.Live)
	}

	jobs := make([]job.Job, 0, 60)
	for i := 0; i < 60; i++ {
		jobs = append(jobs, job.Job{
			ID:      i,
			Name:    "live-task",
			Class:   job.HTC,
			Submit:  int64(i) * 600,
			Runtime: int64(300 + 97*(i%7)),
			Nodes:   1 + i%8,
		})
	}
	src := stream.NewLiveSource(0)
	for i := range jobs {
		if err := src.TryPush(jobs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	c.Sources = map[string]stream.Source{"org-live": src}

	var caught captureSink
	rep, err := c.RunContext(context.Background(), 1, caught.sink())
	if err != nil {
		t.Fatal(err)
	}

	wl := c.Workloads[0].Clone()
	wl.Jobs = job.CloneAll(jobs)
	want, err := systems.SSP.Execute(context.Background(), []systems.Workload{wl}, c.Options, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Base["SSP"], want) {
		t.Errorf("live-fed run diverged from materialized run of the same jobs")
	}
	if len(caught.reports) != 2 {
		t.Errorf("got %d window reports, want 2 (12h windows over 1 day)", len(caught.reports))
	}
}

// TestLiveValidation pins the live-source spec rules.
func TestLiveValidation(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"needs stream", `{"name": "x", "systems": ["SSP"],
			"providers": [{"name": "p", "fixed_nodes": 8, "source": {"kind": "live"}}]}`,
			"stream.enabled"},
		{"needs one system", `{"name": "x", "stream": {"enabled": true},
			"providers": [{"name": "p", "fixed_nodes": 8, "source": {"kind": "live"}}]}`,
			"exactly one"},
		{"needs fixed nodes", `{"name": "x", "systems": ["SSP"], "stream": {"enabled": true},
			"providers": [{"name": "p", "source": {"kind": "live"}}]}`,
			"fixed_nodes"},
		{"no replication", `{"name": "x", "systems": ["SSP"], "stream": {"enabled": true},
			"providers": [{"name": "p", "count": 2, "fixed_nodes": 8, "source": {"kind": "live"}}]}`,
			"replicate"},
		{"no sweep", `{"name": "x", "systems": ["DCS", "DawningCloud"], "stream": {"enabled": true}, "sweep": {"scale": true},
			"providers": [{"name": "p", "fixed_nodes": 8, "source": {"kind": "live"}},
			              {"name": "q", "source": {"kind": "synth", "model": "nasa"}}]}`,
			""},
		{"streamed system only", `{"name": "x", "systems": ["nosuch"], "stream": {"enabled": true},
			"providers": [{"name": "p", "source": {"kind": "synth", "model": "nasa"}}]}`,
			""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseBytes([]byte(tc.src))
			if err == nil {
				t.Fatalf("spec unexpectedly valid")
			}
			if tc.want != "" && !containsSub(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func containsSub(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
