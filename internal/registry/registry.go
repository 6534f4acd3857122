// Package registry is the single name → system mapping of the
// repository: a string-keyed, concurrency-safe registry of simulation
// runners shared by the public Engine API, the experiment suite, the
// declarative scenario engine and the CLIs.
//
// The Default registry ships with the paper's four systems (DCS, SSP,
// DRP, DawningCloud) registered in presentation order. New usage models
// register themselves with Register — no switch statement or map literal
// anywhere needs editing — and are immediately runnable by name from
// Engine.Run, `dcsim -system`, and scenario spec files.
//
// A system registers either a plain Runner (Func) — it then runs
// materialized and serial, validating its own input — or a full
// systems.Descriptor through Describe, which the one run lifecycle in
// internal/systems also executes streamed, partitioned and federated.
// See internal/spot for a complete descriptor example (the "ssp-spot"
// variant).
//
// Names resolve case-insensitively ("dawningcloud" finds "DawningCloud")
// but keep their registered canonical spelling in results and reports.
package registry

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"unicode"

	"repro/internal/core"
	"repro/internal/systems"
)

// Runner simulates one system over a workload set. Implementations must
// treat workloads as read-only, honor context cancellation (an aborted
// run returns an error wrapping ctx.Err()), and be safe for concurrent
// calls: every run builds its own simulation state.
type Runner interface {
	Run(ctx context.Context, workloads []systems.Workload, opts systems.Options) (systems.Result, error)
}

// Func adapts a plain function to the Runner interface.
type Func func(ctx context.Context, workloads []systems.Workload, opts systems.Options) (systems.Result, error)

// Run implements Runner.
func (f Func) Run(ctx context.Context, workloads []systems.Workload, opts systems.Options) (systems.Result, error) {
	return f(ctx, workloads, opts)
}

// Registry maps system names to runners. The zero value is not usable;
// construct with New. All methods are safe for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	runners map[string]Runner // keyed by folded name
	folded  map[string]string // folded name -> canonical spelling
	order   []string          // canonical names in registration order
}

// New returns an empty registry. Most callers want Default (the four
// paper systems plus self-registered extensions) or Default.Snapshot().
func New() *Registry {
	return &Registry{
		runners: make(map[string]Runner),
		folded:  make(map[string]string),
	}
}

// fold is the case-insensitive key for a system name.
func fold(name string) string { return strings.ToLower(name) }

// Register adds a runner under name. It fails on an empty name, a name
// containing whitespace, a nil runner, or a name already taken
// (compared case-insensitively, so "SSP" and "ssp" collide).
//
// Names must be canonical single tokens at Register time: the folded
// (lowercase) form is the registry's one lookup key, and it is also the
// spelling scenario specs, CLI flags and the HTTP API accept. A name
// that needs trimming or contains spaces would fold to a key nothing
// can type back in, so it is rejected here rather than silently
// normalized — the registry and the conventions dclint enforces must
// agree on what a system is called.
func (r *Registry) Register(name string, runner Runner) error {
	if strings.TrimSpace(name) == "" {
		return fmt.Errorf("registry: empty system name")
	}
	if strings.ContainsFunc(name, unicode.IsSpace) {
		return fmt.Errorf("registry: system name %q contains whitespace; names must be canonical single tokens", name)
	}
	if runner == nil {
		return fmt.Errorf("registry: nil runner for system %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := fold(name)
	if prev, ok := r.folded[key]; ok {
		return fmt.Errorf("registry: system %q already registered (as %q)", name, prev)
	}
	r.runners[key] = runner
	r.folded[key] = name
	r.order = append(r.order, name)
	return nil
}

// MustRegister is Register, panicking on error. Intended for package
// init-time self-registration where a failure is a programming error.
func (r *Registry) MustRegister(name string, runner Runner) {
	if err := r.Register(name, runner); err != nil {
		panic(err)
	}
}

// Lookup returns the runner registered under name (case-insensitive).
func (r *Registry) Lookup(name string) (Runner, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	runner, ok := r.runners[fold(name)]
	return runner, ok
}

// Canonical reports the registered spelling of name (case-insensitive).
func (r *Registry) Canonical(name string) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	canonical, ok := r.folded[fold(name)]
	return canonical, ok
}

// Resolve returns the runner and canonical name for name, or an error
// listing every registered system — the one unknown-system message used
// by the Engine, the CLIs and the scenario validator.
func (r *Registry) Resolve(name string) (Runner, string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	key := fold(name)
	runner, ok := r.runners[key]
	if !ok {
		return nil, "", fmt.Errorf("unknown system %q (registered: %s)",
			name, strings.Join(r.order, ", "))
	}
	return runner, r.folded[key], nil
}

// Names lists every registered system's canonical name in registration
// order (the four paper systems come first, in presentation order).
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// Describe adapts a system descriptor to Runner: the adapter validates
// the workloads — the one validation on the Engine.Run/Submit path — and
// executes them materialized through the shared lifecycle
// (systems.Descriptor.Execute). Registering the adapter registers the
// descriptor; Registry.Descriptor recovers it.
func Describe(d *systems.Descriptor) Runner { return described{d} }

type described struct{ d *systems.Descriptor }

// Run implements Runner.
func (r described) Run(ctx context.Context, workloads []systems.Workload, opts systems.Options) (systems.Result, error) {
	if err := systems.ValidateWorkloads(workloads); err != nil {
		return systems.Result{}, err
	}
	return r.d.Execute(ctx, workloads, opts, nil)
}

// Descriptor returns the descriptor registered under name
// (case-insensitive). Systems registered as a plain Runner have none:
// they run materialized and serial only, never streamed, partitioned or
// federated.
func (r *Registry) Descriptor(name string) (*systems.Descriptor, bool) {
	runner, _ := r.Lookup(name)
	d, ok := runner.(described)
	return d.d, ok
}

// Instanced lists, in registration order, the systems registered with a
// descriptor — the ones that can run streamed, partitioned or federated.
func (r *Registry) Instanced() []string {
	var out []string
	for _, name := range r.Names() {
		if _, ok := r.Descriptor(name); ok {
			out = append(out, name)
		}
	}
	return out
}

// Has reports whether name resolves to a registered system.
func (r *Registry) Has(name string) bool {
	_, ok := r.Lookup(name)
	return ok
}

// Snapshot returns an independent copy of the registry: systems
// registered on the copy do not appear in the original and vice versa.
func (r *Registry) Snapshot() *Registry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := New()
	for key, runner := range r.runners {
		out.runners[key] = runner
		out.folded[key] = r.folded[key]
	}
	out.order = append([]string(nil), r.order...)
	return out
}

// Default is the process-wide registry backing the public Engine API,
// the experiment suite, the scenario engine and the CLIs. The paper's
// four systems are registered here in presentation order; extension
// packages (internal/spot) add theirs from init.
var Default = New()

func init() {
	Default.MustRegister("DCS", Describe(systems.DCS))
	Default.MustRegister("SSP", Describe(systems.SSP))
	Default.MustRegister("DRP", Describe(systems.DRP))
	Default.MustRegister("DawningCloud", Describe(core.System(core.Config{})))
}
