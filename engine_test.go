package dawningcloud

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/job"
)

// longHTCWorkload builds a cheap-to-construct workload whose simulation
// schedules enough events (tens of thousands) that mid-run cancellation
// has something to interrupt.
func longHTCWorkload() Workload {
	var jobs []job.Job
	for i := 0; i < 30000; i++ {
		jobs = append(jobs, job.Job{
			ID:      i + 1,
			Class:   job.HTC,
			Submit:  int64(i) * 40,
			Runtime: 1800,
			Nodes:   (i % 16) + 1,
		})
	}
	return Workload{
		Name:       "long-htc",
		Class:      HTC,
		Jobs:       jobs,
		FixedNodes: 64,
		Params:     HTCPolicy(16, 1.5),
	}
}

func TestDefaultEngineSystems(t *testing.T) {
	names := DefaultEngine().Systems()
	for _, want := range []string{"DCS", "SSP", "DRP", "DawningCloud", "ssp-spot"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Systems() = %v, missing %s", names, want)
		}
	}
}

func TestEngineRunByName(t *testing.T) {
	montage, err := MontageWorkload(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DefaultEngine().Run(context.Background(), "dcs", []Workload{montage},
		WithOptions(Options{Horizon: 6 * 3600}))
	if err != nil {
		t.Fatal(err)
	}
	if res.System != "DCS" {
		t.Errorf("System = %q, want canonical DCS", res.System)
	}
	p, _ := res.Provider("montage-mtc")
	if p.Completed != 1000 {
		t.Errorf("completed = %d, want 1000", p.Completed)
	}
}

func TestEngineRunUnknownSystemListsNames(t *testing.T) {
	_, err := DefaultEngine().Run(context.Background(), "nope", nil)
	if err == nil {
		t.Fatal("unknown system accepted")
	}
	for _, want := range []string{`unknown system "nope"`, "DCS", "DawningCloud", "ssp-spot"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// TestRegisterCustomSystemEndToEnd is the acceptance test for the
// extensibility contract: a system registered from this test file — no
// edits to any core dispatch — is runnable by name via Engine.Run AND
// from a scenario spec (the dcsim CLI path is covered in
// cmd/dcsim/main_test.go).
func TestRegisterCustomSystemEndToEnd(t *testing.T) {
	const name = "test-echo"
	if !DefaultEngine().Has(name) {
		DefaultEngine().MustRegister(name, RunnerFunc(
			func(ctx context.Context, wls []Workload, opts Options) (Result, error) {
				if err := ctx.Err(); err != nil {
					return Result{}, err
				}
				res := Result{System: name, Horizon: opts.HorizonFor(wls), TotalNodeHours: 1}
				for _, wl := range wls {
					res.Providers = append(res.Providers, ProviderResult{
						Name: wl.Name, Class: wl.Class,
						Submitted: len(wl.Jobs), Completed: len(wl.Jobs), NodeHours: 1,
					})
				}
				return res, nil
			}))
	}

	// 1. Runnable via Engine.Run.
	montage, err := MontageWorkload(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DefaultEngine().Run(context.Background(), name, []Workload{montage})
	if err != nil {
		t.Fatalf("Engine.Run(%s): %v", name, err)
	}
	if res.System != name {
		t.Errorf("System = %q, want %q", res.System, name)
	}

	// 2. Runnable from a scenario spec by name.
	spec, err := ParseScenario([]byte(fmt.Sprintf(`{"name":"ext","days":1,"seed":3,
		"systems":["DCS",%q],
		"providers":[{"name":"p","source":{"kind":"synth","model":"nasa"}}]}`, name)))
	if err != nil {
		t.Fatalf("ParseScenario with registered extension: %v", err)
	}
	report, err := RunScenario(spec, 2)
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	got, ok := report.Base[name]
	if !ok {
		t.Fatalf("scenario report missing %q results (have %v)", name, report.Systems)
	}
	if p, ok := got.Provider("p"); !ok || p.Completed == 0 {
		t.Errorf("extension result empty: %+v", got)
	}
}

func TestNewEngineIsolatedFromDefault(t *testing.T) {
	eng := NewEngine()
	if !eng.Has("DawningCloud") {
		t.Fatal("NewEngine missing snapshot of builtins")
	}
	eng.MustRegister("isolated-sys", RunnerFunc(
		func(ctx context.Context, wls []Workload, opts Options) (Result, error) {
			return Result{System: "isolated-sys"}, nil
		}))
	if DefaultEngine().Has("isolated-sys") {
		t.Error("NewEngine registration leaked into the default engine")
	}
}

func TestEngineRunAllExplicitList(t *testing.T) {
	montage, err := MontageWorkload(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	results, err := DefaultEngine().RunAll(context.Background(),
		[]string{"DCS", "SSP"}, []Workload{montage},
		WithOptions(Options{Horizon: 6 * 3600}), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].System != "DCS" || results[1].System != "SSP" {
		t.Fatalf("results = %v", results)
	}
}

// TestEngineRunAllNilRunsAllRegistered pins the documented default: a
// nil system list fans out over every registered system, one result per
// name in registration order.
func TestEngineRunAllNilRunsAllRegistered(t *testing.T) {
	montage, err := MontageWorkload(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine() // snapshot: isolated from other tests' registrations
	want := eng.Systems()
	results, err := eng.RunAll(context.Background(), nil, []Workload{montage},
		WithOptions(Options{Horizon: 6 * 3600}), WithSeed(3), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(want) {
		t.Fatalf("results = %d, want one per registered system (%d: %v)", len(results), len(want), want)
	}
	for i, name := range want {
		if results[i].System != name {
			t.Errorf("results[%d].System = %q, want %q (registration order)", i, results[i].System, name)
		}
	}
}

func TestEngineEventsStream(t *testing.T) {
	montage, err := MontageWorkload(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var started, completed, cells int
	_, err = DefaultEngine().RunAll(context.Background(), []string{"DCS", "DRP"},
		[]Workload{montage},
		WithOptions(Options{Horizon: 6 * 3600}),
		WithEvents(func(ev Event) {
			mu.Lock()
			defer mu.Unlock()
			switch ev.(type) {
			case RunStartedEvent:
				started++
			case RunCompletedEvent:
				completed++
			case CellCompletedEvent:
				cells++
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if started != 2 || completed != 2 || cells != 2 {
		t.Errorf("events: started=%d completed=%d cells=%d, want 2/2/2", started, completed, cells)
	}
}

// TestEngineRunCancellation is the cancellation satellite at the single
// run level: a run aborted mid-simulation returns promptly with an error
// wrapping ctx.Err().
func TestEngineRunCancellation(t *testing.T) {
	wl := longHTCWorkload()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	// Cancel on the run's own start event rather than a wall-clock timer:
	// the fast kernel finishes this workload in tens of milliseconds, so
	// any sleep-based cancellation would race the simulation.
	_, err := DefaultEngine().Run(ctx, "DawningCloud", []Workload{wl},
		WithOptions(Options{Horizon: TwoWeeks}),
		WithEvents(func(ev Event) {
			if _, ok := ev.(RunStartedEvent); ok {
				cancel()
			}
		}))
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancelled run took %v to return", elapsed)
	}
}

// TestEngineRunTimeout: a context deadline aborts the run with
// DeadlineExceeded.
func TestEngineRunTimeout(t *testing.T) {
	wl := longHTCWorkload()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := DefaultEngine().Run(ctx, "SSP", []Workload{wl},
		WithOptions(Options{Horizon: TwoWeeks}))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestRunAllCancellationNoGoroutineLeak is the cancellation satellite at
// the fan-out level: cancelling a RunAll with Workers > 1 returns
// promptly with ctx.Err() and leaves no worker goroutines behind.
// Run under -race in CI.
func TestRunAllCancellationNoGoroutineLeak(t *testing.T) {
	wl := longHTCWorkload()
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := DefaultEngine().RunAll(ctx, []string{"DCS", "SSP", "DRP", "DawningCloud"},
		[]Workload{wl}, WithOptions(Options{Horizon: TwoWeeks}), WithWorkers(4))
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 10*time.Second {
		t.Errorf("cancelled RunAll took %v to return", elapsed)
	}
	// All workers exit once their in-flight runs observe cancellation;
	// allow a grace period for the scheduler to reap them.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after cancellation grace period",
		before, runtime.NumGoroutine())
}

// TestScenarioCancellation: cancellation propagates through the
// declarative scenario engine too.
func TestScenarioCancellation(t *testing.T) {
	spec, err := ParseScenario([]byte(`{"name":"cancel","days":14,"seed":3,
		"systems":["DCS","SSP","DawningCloud"],
		"providers":[{"name":"p","count":3,"source":{"kind":"synth","model":"nasa"}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, err = RunScenarioContext(ctx, spec, 4, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
