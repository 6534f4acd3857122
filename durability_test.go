package dawningcloud

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/runstore"
)

// durableEngine opens a runstore over dir and builds an engine on it,
// with cleanup ordered store-after-engine as WithRunStore documents.
func durableEngine(t *testing.T, dir string, cfg ServiceConfig) *Engine {
	t.Helper()
	store, err := runstore.Open(runstore.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(WithRunStore(store), WithServiceConfig(cfg))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := eng.Shutdown(ctx); err != nil {
			t.Errorf("engine shutdown: %v", err)
		}
		if err := store.Close(); err != nil {
			t.Errorf("store close: %v", err)
		}
	})
	return eng
}

const durableScenarioSrc = `{"name":"durable-mini","days":1,"systems":["DCS","DawningCloud"],
	"providers":[{"name":"p","source":{"kind":"synth","model":"nasa"}}]}`

// TestEngineDurableRestartByteIdentical: a scenario run completed
// against a durable store survives an engine restart — the rebooted
// engine serves the same run ID with a byte-identical rendered report,
// without re-executing, and identical submissions still dedup against
// the recovered result.
func TestEngineDurableRestartByteIdentical(t *testing.T) {
	spec, err := ParseScenario([]byte(durableScenarioSrc))
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunScenario(spec, 2)
	if err != nil {
		t.Fatal(err)
	}

	// First life: run the scenario to done, then shut everything down
	// cleanly so the dir can be reopened.
	dir := t.TempDir()
	store1, err := runstore.Open(runstore.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	eng1 := NewEngine(WithRunStore(store1), WithServiceConfig(ServiceConfig{Workers: 2}))
	spec1, _ := ParseScenario([]byte(durableScenarioSrc))
	h1, err := eng1.Submit(context.Background(), SubmitRequest{Scenario: spec1}, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	res1, err := h1.Result(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := res1.Report.Render(); got != want.Render() {
		t.Fatalf("live report diverges from blocking run:\n%s", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := eng1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life.
	eng2 := durableEngine(t, dir, ServiceConfig{Workers: 2})

	h2, ok := eng2.Handle(h1.ID())
	if !ok {
		t.Fatalf("run %s not recovered", h1.ID())
	}
	if h2.Status() != RunStatusDone {
		t.Fatalf("recovered status = %v, want done", h2.Status())
	}
	res2, err := h2.Result(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Report == nil {
		t.Fatal("recovered run has no report")
	}
	if got := res2.Report.Render(); got != want.Render() {
		t.Errorf("recovered report not byte-identical:\n--- recovered\n%s\n--- want\n%s", got, want.Render())
	}
	if stats := eng2.ServiceStats(); stats.Executed != 0 {
		t.Errorf("recovered engine executed %d runs, want 0 (served from disk)", stats.Executed)
	}

	// Dedup cache survived the restart: same scenario, same run.
	spec2, _ := ParseScenario([]byte(durableScenarioSrc))
	h3, err := eng2.Submit(context.Background(), SubmitRequest{Scenario: spec2}, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if !h3.Deduped() || h3.ID() != h1.ID() {
		t.Errorf("resubmit = id %s deduped %v, want cache hit on %s", h3.ID(), h3.Deduped(), h1.ID())
	}
}

// TestEngineDurableCrashMidRunResumes: the data dir is copied the
// moment a submission is accepted (its spec is on disk, its result is
// not) — the hard-stop case. An engine booted over the copy must
// rehydrate the scenario from the persisted spec, run it to done, and
// produce the same bytes as the uninterrupted path.
func TestEngineDurableCrashMidRunResumes(t *testing.T) {
	spec, err := ParseScenario([]byte(durableScenarioSrc))
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunScenario(spec, 2)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	// Workers: 1 and a queue hog keep the scenario strictly queued, so
	// the "crash" provably lands before any attempt ran. The hog is a
	// live-fed run: it holds the only worker, blocked on its task feed,
	// until the feed ends after the copy.
	eng1 := durableEngine(t, dir, ServiceConfig{Workers: 1})
	hogSpec, err := ParseScenario([]byte(`{"name":"hog","days":1,"systems":["DCS"],
		"stream":{"enabled":true,"window_seconds":43200},
		"providers":[{"name":"p","fixed_nodes":8,"source":{"kind":"live"}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	hog, err := eng1.Submit(context.Background(), SubmitRequest{Scenario: hogSpec}, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	hogFeed, ok := eng1.Feed(hog.ID())
	if !ok {
		t.Fatalf("hog run %s has no live feed", hog.ID())
	}
	spec1, _ := ParseScenario([]byte(durableScenarioSrc))
	h1, err := eng1.Submit(context.Background(), SubmitRequest{Scenario: spec1}, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}

	crashDir := t.TempDir()
	copyDir(t, dir, crashDir)
	hogFeed.CloseAll()

	eng2 := durableEngine(t, crashDir, ServiceConfig{Workers: 2})
	h2, ok := eng2.Handle(h1.ID())
	if !ok {
		t.Fatalf("interrupted run %s not recovered", h1.ID())
	}
	res, err := h2.Result(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Report == nil {
		t.Fatal("resumed run has no report")
	}
	if got := res.Report.Render(); got != want.Render() {
		t.Errorf("resumed report not byte-identical:\n--- resumed\n%s\n--- want\n%s", got, want.Render())
	}
	if stats := eng2.ServiceStats(); stats.RecoveredRuns == 0 {
		t.Errorf("stats = %+v, want recovered runs counted", stats)
	}
}

// TestRehydrateStreamedScenario pins the persist round trip for the
// streamed (non-live) execution path: the WAL's persistedSpec must
// rebuild a runnable task whose report matches the direct path byte
// for byte, stream block included. Live specs never reach this codec —
// Submit persists them with a nil spec because their feeds die with
// the process — so this is the only streamed shape recovery must
// handle.
func TestRehydrateStreamedScenario(t *testing.T) {
	src := `{"name":"durable-streamed","days":1,"systems":["SSP","DawningCloud"],
		"stream":{"enabled":true,"stride_seconds":3600,"window_seconds":43200},
		"providers":[{"name":"p","source":{"kind":"synth","model":"nasa"}}]}`
	spec, err := ParseScenario([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunScenario(spec, 2)
	if err != nil {
		t.Fatal(err)
	}

	spec2, _ := ParseScenario([]byte(src))
	specJSON, err := json.Marshal(spec2)
	if err != nil {
		t.Fatal(err)
	}
	persisted, err := specForScenario(specJSON, runConfig{workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	task, err := NewEngine().rehydrateTask("scenario", persisted)
	if err != nil {
		t.Fatal(err)
	}
	got, err := task(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, ok := got.(*ScenarioReport)
	if !ok {
		t.Fatalf("rehydrated task returned %T, want *ScenarioReport", got)
	}
	if rep.Render() != want.Render() {
		t.Errorf("rehydrated streamed report not byte-identical:\n--- rehydrated\n%s\n--- want\n%s",
			rep.Render(), want.Render())
	}
}

func copyDir(t *testing.T, from, to string) {
	t.Helper()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
