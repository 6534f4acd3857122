// Package lint is dclint: a suite of custom static analyzers that
// machine-enforce the determinism and concurrency invariants every
// golden in this repository depends on. The paper reproduction pins
// exact bytes (Tables 2–4, kernel_golden.json, the differential kernel
// suite), so invariants that used to live in review convention are
// enforced here at compiler grade:
//
//   - detrand: library code must not draw from math/rand's
//     process-global source (rand.Intn, rand.Float64, ...) and must not
//     seed a source from the wall clock. Randomness comes from an
//     explicit rand.New(rand.NewSource(seed)) so every run is
//     replayable from its seed.
//   - walltime: simulation-path packages (internal/sim, core, systems,
//     sched, policy, tre, spot, synth, workflow, scenario) must not
//     read the wall clock (time.Now, time.Since, time.Sleep,
//     time.After, ...). Only the virtual clock may advance simulated
//     time; internal/emulation, internal/service, internal/events,
//     benchmarks and tests are exempt by construction.
//   - mapiter: a `range` over a map that appends to an outer slice
//     must be followed by a sort of that slice, and must not print,
//     write or send on a channel from inside the loop body — the
//     classic golden-drift bug, since Go randomizes map iteration
//     order.
//   - ctxfirst: exported functions taking a context.Context must take
//     it as the first parameter; context must not be stored in struct
//     fields; and library code (anything outside package main and
//     tests) must not mint context.Background()/context.TODO() but
//     thread the caller's context.
//
// # Suppression
//
// Every analyzer honors one suppression directive:
//
//	//dclint:allow <analyzer> -- <reason>
//
// placed either at the end of the flagged line or on its own line
// immediately above it. The directive is itself linted: an allow with
// no reason, or one naming an unknown analyzer, is an error that
// cannot be suppressed. There is no file- or package-level escape
// hatch on purpose — every exception is visible at the line that needs
// it, with its justification beside it.
//
// The suite runs as `go run ./cmd/dclint ./...`, is gated in CI, and
// each analyzer has analysistest-style fixtures under
// internal/lint/testdata/src.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check. It mirrors the shape of
// golang.org/x/tools/go/analysis.Analyzer (which is not vendorable in
// this offline build environment) closely enough that migrating to the
// real driver later is mechanical.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //dclint:allow directives. Lowercase, no spaces.
	Name string
	// Doc is the one-paragraph description shown by `dclint -list`.
	Doc string
	// Run performs the check on one package and reports findings via
	// pass.Reportf.
	Run func(pass *Pass) error
}

// All returns the full dclint suite in stable presentation order.
func All() []*Analyzer {
	return []*Analyzer{Detrand, Walltime, Mapiter, CtxFirst}
}

// ByName resolves an analyzer by its directive name.
func ByName(name string) (*Analyzer, bool) {
	for _, a := range All() {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// A Diagnostic is one finding, positioned and attributed to the
// analyzer that raised it. DirectiveErrors carry the pseudo-analyzer
// name "dclint" and are not suppressible.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats the diagnostic the way compilers do:
// file:line:col: [analyzer] message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass carries one type-checked package through one analyzer. The
// fields mirror analysis.Pass.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Path is the package's import path ("repro/internal/sim").
	Path string
	// RelPath is the import path relative to the module root
	// ("internal/sim"; "." for the module root package). Fixture
	// packages use their path under testdata/src verbatim, so
	// path-scoped analyzers behave identically under test.
	RelPath string

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether pos lies in a *_test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// IsMain reports whether the package is a command (package main).
// Commands own the process and may mint root contexts; library
// invariants about context plumbing do not all apply.
func (p *Pass) IsMain() bool {
	return p.Pkg != nil && p.Pkg.Name() == "main"
}

// Run executes the analyzers over the packages, applies //dclint:allow
// suppression, validates the directives themselves, and returns the
// surviving findings sorted by position. A nil analyzer slice means
// All().
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	if analyzers == nil {
		analyzers = All()
	}

	var raw []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Path:     pkg.Path,
				RelPath:  pkg.RelPath,
				diags:    &raw,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}

	directives, errs := collectDirectives(pkgs)
	kept := raw[:0]
	for _, d := range raw {
		if !directives.suppresses(d) {
			kept = append(kept, d)
		}
	}
	kept = append(kept, errs...)
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return kept, nil
}
