package experiments

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/scenario"
)

// golden reads testdata/<name>, failing the test when it is missing.
func golden(t *testing.T, name string) string {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(want)
}

// checkGolden requires a's text to match testdata/<id>.golden and its
// chart, where it has one, testdata/<id>.svg.golden byte for byte.
func checkGolden(t *testing.T, a Artifact) {
	t.Helper()
	if want := golden(t, a.ID+".golden"); a.Text != want {
		t.Errorf("%s drifted from its golden:\n got:\n%s\nwant:\n%s", a.ID, a.Text, want)
	}
	if a.SVG == "" {
		return
	}
	if want := golden(t, a.ID+".svg.golden"); a.SVG != want {
		t.Errorf("%s SVG drifted from its golden", a.ID)
	}
}

// TestPaperTablesGoldenBytes is the evaluation's byte-level regression
// pin: every artifact in ArtifactIDs() at seed 42 over the paper's
// two-week window must match its goldens exactly. The goldens were
// captured from the experiment suite that preceded the scenario-report
// renderers, and Tables 2-4 date back further, to the original
// container/heap kernel; byte-identical output here proves the
// renderers, the scenario engine and the kernel replay the paper
// evaluation event-for-event.
//
// The request runs with four workers — more than one on every CI
// machine — and the full test job runs under -race, so this also pins
// that parallel artifact regeneration is deterministic and race-free.
func TestPaperTablesGoldenBytes(t *testing.T) {
	arts := render(t, 42, 14, 4, ArtifactIDs()...)
	if len(arts) != len(ArtifactIDs()) {
		t.Fatalf("artifacts = %d, want %d", len(arts), len(ArtifactIDs()))
	}
	for _, a := range arts {
		checkGolden(t, a)
	}
}

// TestPaperTablesGoldenBytesPartitioned renders Tables 2-4 from
// paper-baseline with each simulation's providers split onto per-core
// kernel partitions and requires byte-identical output against the same
// serial-kernel goldens: intra-run partitioning must be invisible in
// every published number. P=4 exceeds the paper evaluation's three
// providers, so this also pins the clamp-to-workload-count path.
func TestPaperTablesGoldenBytesPartitioned(t *testing.T) {
	for _, p := range []int{2, 4} {
		spec, err := scenario.Builtin("paper-baseline")
		if err != nil {
			t.Fatal(err)
		}
		spec.Partitions = p
		rep, err := scenario.RunContext(context.Background(), spec, 2, nil)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		for _, tb := range []tableSpec{table2, table3, table4} {
			a, err := providerTable(rep, tb)
			if err != nil {
				t.Fatalf("P=%d: %v", p, err)
			}
			checkGolden(t, a)
		}
	}
}

// TestPaperTablesGoldenBytesAnyWorkerCount renders at other worker
// counts — every artifact serially, Table 2 at two and eight workers —
// and requires the same golden bytes: worker scheduling must not leak
// into artifact content.
func TestPaperTablesGoldenBytesAnyWorkerCount(t *testing.T) {
	for _, tc := range []struct {
		workers int
		ids     []string
	}{
		{1, ArtifactIDs()},
		{2, []string{"table2"}},
		{8, []string{"table2"}},
	} {
		arts := render(t, 42, 14, tc.workers, tc.ids...)
		if len(arts) != len(tc.ids) {
			t.Fatalf("workers=%d: artifacts = %d, want %d", tc.workers, len(arts), len(tc.ids))
		}
		for _, a := range arts {
			checkGolden(t, a)
		}
	}
}
