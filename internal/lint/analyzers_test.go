package lint

import (
	"strings"
	"testing"
)

func TestDetrandFixtures(t *testing.T) {
	runFixture(t, []*Analyzer{Detrand}, "detrand/a")
}

func TestWalltimeFixtures(t *testing.T) {
	// internal/sim is simulation-path (findings expected per wants);
	// internal/emulation is a real-time layer and must stay silent.
	runFixture(t, []*Analyzer{Walltime}, "internal/sim", "internal/emulation")
}

func TestPartitionFixtures(t *testing.T) {
	// The lockstep driver package is both walltime-protected (explicitly
	// listed, not just prefix-covered) and detrand-checked: partition
	// goroutines must never pace on the host clock or draw from the
	// process-global RNG.
	runFixture(t, []*Analyzer{Walltime, Detrand}, "internal/sim/partition")
}

func TestClustersimFixtures(t *testing.T) {
	// The federated subsystem is born under the determinism invariants:
	// simulation-path for walltime, and detrand applies everywhere, so
	// the fixture carries findings for both analyzers at once.
	runFixture(t, []*Analyzer{Walltime, Detrand}, "internal/clustersim")
}

func TestStreamFixtures(t *testing.T) {
	// The streamed execution path is simulation-path (ingested records
	// are scheduled on the virtual clock) and detrand-checked: a wall
	// clock read or a global RNG draw would desynchronize a streamed run
	// from its materialized twin.
	runFixture(t, []*Analyzer{Walltime, Detrand}, "internal/stream")
}

func TestRunstoreFixtures(t *testing.T) {
	// The durable run store is a real-time persistence layer: WAL
	// timestamps and lease expiry genuinely read the host clock, so
	// walltime must stay silent over it — while detrand still applies,
	// which is what keeps the fixture dirty.
	runFixture(t, []*Analyzer{Walltime, Detrand}, "internal/runstore")
}

func TestMapiterFixtures(t *testing.T) {
	runFixture(t, []*Analyzer{Mapiter}, "mapiter/a")
}

func TestCtxFirstFixtures(t *testing.T) {
	// ctxfirst/mainpkg is package main: minting a root context there is
	// allowed, so it contributes no wants and must stay silent.
	runFixture(t, []*Analyzer{CtxFirst}, "ctxfirst/a", "ctxfirst/mainpkg")
}

func TestSuppressionDirective(t *testing.T) {
	// Valid directives silence findings in both placements...
	runFixture(t, []*Analyzer{Detrand}, "suppress/ok")
	// ...and malformed directives are errors even when no analyzer in
	// the run would have fired on those lines.
	runFixture(t, []*Analyzer{Detrand}, "suppress/bad")
}

func TestWalltimeAppliesScope(t *testing.T) {
	protected := []string{
		"internal/sim", "internal/sim/refheap", "internal/sim/partition",
		"internal/core",
		"internal/systems", "internal/clustersim", "internal/sched",
		"internal/policy", "internal/tre", "internal/spot",
		"internal/synth", "internal/workflow", "internal/scenario",
		"internal/stream",
	}
	for _, p := range protected {
		if !walltimeApplies(p) {
			t.Errorf("walltimeApplies(%q) = false, want true", p)
		}
	}
	exempt := []string{
		"internal/emulation", "internal/service", "internal/events",
		"internal/runstore", "internal/kernelbench", "internal/simulator",
		".", "cmd/dcsim",
	}
	for _, p := range exempt {
		if walltimeApplies(p) {
			t.Errorf("walltimeApplies(%q) = true, want false", p)
		}
	}
}

func TestParseDirective(t *testing.T) {
	cases := []struct {
		text    string
		wantErr string // substring of the expected error, "" for valid
	}{
		{"//dclint:allow detrand -- seeded upstream", ""},
		{"//dclint:allow mapiter -- keys feed an unordered set", ""},
		{"//dclint:allow nosuch -- reason", `unknown analyzer "nosuch"`},
		{"//dclint:allow detrand", "has no reason"},
		{"//dclint:allow detrand --", "has no reason"},
		{"//dclint:allow detrand --   ", "has no reason"},
		{"//dclint:allow -- reason only", "missing an analyzer name"},
		{"//dclint:allow", "missing an analyzer name"},
		{"//dclint:allow detrand walltime -- both", "names one analyzer"},
		{"//dclint:allowed something", "malformed"},
	}
	for _, tc := range cases {
		d, msg := parseDirective(tc.text)
		if tc.wantErr == "" {
			if msg != "" {
				t.Errorf("parseDirective(%q) unexpected error %q", tc.text, msg)
			}
			continue
		}
		if !strings.Contains(msg, tc.wantErr) {
			t.Errorf("parseDirective(%q) = (%v, %q), want error containing %q",
				tc.text, d, msg, tc.wantErr)
		}
	}
}

func TestByName(t *testing.T) {
	for _, a := range All() {
		got, ok := ByName(a.Name)
		if !ok || got != a {
			t.Errorf("ByName(%q) = (%v, %v), want the analyzer itself", a.Name, got, ok)
		}
	}
	if _, ok := ByName("nosuch"); ok {
		t.Error(`ByName("nosuch") resolved`)
	}
}

// TestFixturesAreDirty pins that each analyzer's primary fixture
// actually raises findings when run WITHOUT want-checking — guarding
// against a future refactor that silently turns an analyzer into a
// no-op while its fixture wants rot.
func TestFixturesAreDirty(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		fixture  string
		minimum  int
	}{
		{Detrand, "detrand/a", 5},
		{Walltime, "internal/sim", 5},
		{Walltime, "internal/clustersim", 2},
		{Detrand, "internal/clustersim", 2},
		{Detrand, "internal/runstore", 2},
		{Walltime, "internal/stream", 4},
		{Detrand, "internal/stream", 2},
		{Mapiter, "mapiter/a", 4},
		{CtxFirst, "ctxfirst/a", 5},
	}
	for _, tc := range cases {
		pkgs := loadFixturePkgs(t, tc.fixture)
		diags, err := Run(pkgs, []*Analyzer{tc.analyzer})
		if err != nil {
			t.Fatalf("%s: %v", tc.analyzer.Name, err)
		}
		if len(diags) < tc.minimum {
			t.Errorf("%s over %s: %d finding(s), want at least %d",
				tc.analyzer.Name, tc.fixture, len(diags), tc.minimum)
		}
	}
}
