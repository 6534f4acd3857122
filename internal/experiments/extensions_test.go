package experiments

import (
	"context"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/events"
	"repro/internal/scenario"
	"repro/internal/systems"
)

// Extensions run on a 4-day window: it keeps the scale study fast while
// preserving the consolidation dynamics.
const extDays = 4

// scaleReport runs the ext-scale study consolidating up to n providers.
func scaleReport(t *testing.T, n, workers int) *scenario.Report {
	t.Helper()
	spec := studySpec(t, "ext-scale", 42, extDays)
	spec.Providers[0].Count = n
	rep, _ := runSpec(t, spec, workers)
	return rep
}

func TestExtScaleSavingsPersist(t *testing.T) {
	points := scaleReport(t, 3, 0).Scale
	if len(points) != 3 {
		t.Fatalf("points = %d, want 3", len(points))
	}
	for _, p := range points {
		if p.DSPNodeHours >= p.DCSNodeHours {
			t.Errorf("n=%d: DSP %.0f not below DCS %.0f", p.Providers, p.DSPNodeHours, p.DCSNodeHours)
		}
		if p.SavedFraction <= 0 {
			t.Errorf("n=%d: no savings (%.3f)", p.Providers, p.SavedFraction)
		}
	}
	// Totals grow with consolidation size.
	if points[2].DCSNodeHours <= points[0].DCSNodeHours {
		t.Error("DCS total did not grow with more providers")
	}
}

func TestExtScaleValidation(t *testing.T) {
	spec := studySpec(t, "ext-scale", 42, extDays)
	spec.Providers[0].Count = 0
	if err := spec.Validate(); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestScaleArtifactRenders(t *testing.T) {
	a := scaleArtifact(scaleReport(t, 2, 0))
	if a.ID != "ext-scale" || !strings.Contains(a.Text, "providers") {
		t.Errorf("artifact = %+v", a)
	}
	if !strings.Contains(a.SVG, "<svg") {
		t.Error("missing SVG")
	}
	if _, ok := a.Values["saved_pct_n1"]; !ok {
		t.Error("missing n=1 value")
	}
}

func TestAblationBackfill(t *testing.T) {
	a := render(t, 42, extDays, 0, "ext-backfill")[0]
	ffDone := a.Values["firstfit_completed"]
	easyDone := a.Values["easy_completed"]
	if ffDone == 0 || easyDone == 0 {
		t.Fatalf("no completions: ff=%.0f easy=%.0f", ffDone, easyDone)
	}
	// Both schedulers must process essentially the whole trace.
	if ratio := easyDone / ffDone; ratio < 0.98 || ratio > 1.02 {
		t.Errorf("completion ratio = %.3f, want ~1", ratio)
	}
	if !strings.Contains(a.Text, "EASY") {
		t.Errorf("text missing EASY row:\n%s", a.Text)
	}
}

// TestAblationBackfillUnknownProvider: an arm whose run lacks the NASA
// provider fails the render instead of printing zeros.
func TestAblationBackfillUnknownProvider(t *testing.T) {
	ff := &scenario.Report{Base: map[string]systems.Result{"DawningCloud": {}}}
	if _, err := backfillArtifact(ff, systems.Result{}); err == nil {
		t.Error("missing provider accepted")
	}
}

// TestExtScaleSingleProviderEdge covers the sweep's smallest grid —
// one provider, so exactly one consolidation point from the base cells
// alone — and pins its determinism: four workers must reproduce the
// serial numbers bit for bit (run under -race in CI, this also exercises
// the cell fan-out's synchronization).
func TestExtScaleSingleProviderEdge(t *testing.T) {
	sp := scaleReport(t, 1, 1).Scale
	pp := scaleReport(t, 1, 4).Scale
	if len(sp) != 1 || len(pp) != 1 {
		t.Fatalf("points = %d/%d, want 1/1", len(sp), len(pp))
	}
	if sp[0].Providers != 1 {
		t.Errorf("point providers = %d, want 1", sp[0].Providers)
	}
	if !reflect.DeepEqual(sp, pp) {
		t.Errorf("workers=4 diverged from serial:\n serial   %+v\n parallel %+v", sp[0], pp[0])
	}
}

// TestAblationProvisionTwoPointDeterminism runs the ablation's two
// simulations (grant-or-reject vs best-effort) at one and four workers
// and requires identical artifact values, and exactly one simulation per
// policy.
func TestAblationProvisionTwoPointDeterminism(t *testing.T) {
	run := func(workers int) (Artifact, int) {
		p, err := NewPlan(42, extDays, []string{"ext-provision"})
		if err != nil {
			t.Fatal(err)
		}
		var started atomic.Int64
		arts, err := p.Run(context.Background(), workers, func(ev events.Event) {
			if _, ok := ev.(events.RunStarted); ok {
				started.Add(1)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return arts[0], int(started.Load())
	}
	sa, _ := run(1)
	pa, sims := run(4)
	if !reflect.DeepEqual(sa.Values, pa.Values) {
		t.Errorf("workers=4 diverged from serial:\n serial   %v\n parallel %v", sa.Values, pa.Values)
	}
	if sa.Text != pa.Text {
		t.Error("rendered ablation tables differ between worker counts")
	}
	if sims != 2 {
		t.Errorf("ran %d simulations, want exactly 2", sims)
	}
}

func TestAblationProvisionConstrainedPool(t *testing.T) {
	// 160 nodes: B=40 fits but large DR requests are rejected outright
	// under grant-or-reject while best-effort takes partial grants.
	a := render(t, 42, extDays, 0, "ext-provision")[0]
	if a.Values["strict_rejected"] == 0 {
		t.Error("strict policy recorded no rejections on a 160-node pool")
	}
	// Best-effort never rejects while nodes remain; it may still reject
	// when the pool is fully allocated, but must reject no more often.
	if a.Values["effort_rejected"] > a.Values["strict_rejected"] {
		t.Errorf("best-effort rejected more (%v) than strict (%v)",
			a.Values["effort_rejected"], a.Values["strict_rejected"])
	}
	if a.Values["effort_completed"] < a.Values["strict_completed"]*0.95 {
		t.Errorf("best-effort completed %v << strict %v",
			a.Values["effort_completed"], a.Values["strict_completed"])
	}
}
