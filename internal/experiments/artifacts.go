package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/systems"
)

// outcome is one study's output: its scenario report, plus the EASY
// backfill arm's result for the backfill study.
type outcome struct {
	rep  *scenario.Report
	easy systems.Result
}

// recipe is one addressable artifact: the studies it renders from (by
// key, see studies) and the renderer over their outcomes, in that order.
type recipe struct {
	id      string
	ext     bool // an extension study, outside the paper's "all"
	studies []string
	render  func(in []outcome) (Artifact, error)
}

// paper is the study every Tables 2-4 and Figures 12-14 renderer shares.
var paper = []string{"paper-baseline"}

func fromTable(t tableSpec) func([]outcome) (Artifact, error) {
	return func(in []outcome) (Artifact, error) { return providerTable(in[0].rep, t) }
}

func fromReport(render func(*scenario.Report) Artifact) func([]outcome) (Artifact, error) {
	return func(in []outcome) (Artifact, error) { return render(in[0].rep), nil }
}

// recipes lists every artifact in paper order: the paper's Section 4
// artifacts (what "all" means), then the extension studies (what
// "extensions" means).
var recipes = []recipe{
	{id: "table1", render: func([]outcome) (Artifact, error) { return Table1(), nil }},
	{id: "fig9", studies: []string{"fig9"}, render: fromReport(figure9.render)},
	{id: "fig10", studies: []string{"fig10"}, render: fromReport(figure10.render)},
	{id: "fig11", studies: []string{"fig11"}, render: fromReport(figure11.render)},
	{id: "table2", studies: paper, render: fromTable(table2)},
	{id: "table3", studies: paper, render: fromTable(table3)},
	{id: "table4", studies: paper, render: fromTable(table4)},
	{id: "fig12", studies: paper, render: fromReport(figure12)},
	{id: "fig13", studies: paper, render: fromReport(figure13)},
	{id: "fig14", studies: paper, render: fromReport(figure14)},
	{id: "tco", render: func([]outcome) (Artifact, error) { return TCO() }},
	{id: "ext-scale", ext: true, studies: []string{"ext-scale"}, render: fromReport(scaleArtifact)},
	{id: "ext-backfill", ext: true, studies: []string{"ext-backfill"},
		render: func(in []outcome) (Artifact, error) { return backfillArtifact(in[0].rep, in[0].easy) }},
	{id: "ext-provision", ext: true, studies: []string{"ext-provision-strict", "ext-provision-effort"},
		render: func(in []outcome) (Artifact, error) { return provisionArtifact(in[0].rep, in[1].rep) }},
}

func recipeByID(id string) (recipe, bool) {
	for _, r := range recipes {
		if r.id == id {
			return r, true
		}
	}
	return recipe{}, false
}

// study is one distinct simulation run of a request: a spec derived from
// paper-baseline, plus, for the backfill ablation, an EASY arm over the
// spec's compiled workloads.
type study struct {
	spec *scenario.Spec
	easy bool
}

// singleNASA narrows base to DawningCloud over the NASA provider alone.
func singleNASA(s scenario.Spec) scenario.Spec {
	s.Systems = []string{"DawningCloud"}
	s.Providers = []scenario.ProviderSpec{s.Providers[0]}
	return s
}

func gridStudy(f sweepFigure) func(scenario.Spec) study {
	return func(s scenario.Spec) study {
		s.Systems = []string{"DawningCloud"}
		s.Sweep = &scenario.SweepSpec{Grid: f.grid()}
		return study{spec: &s}
	}
}

func provisionStudy(policy string) func(scenario.Spec) study {
	return func(s scenario.Spec) study {
		s = singleNASA(s)
		s.Pool.Capacity = provisionCapacity
		s.Pool.Policy = policy
		return study{spec: &s}
	}
}

// studies derives each study from the request's paper-baseline spec. The
// builders receive a shallow copy and only ever replace its fields, so
// the shared base is never written through.
var studies = map[string]func(base scenario.Spec) study{
	"paper-baseline": func(s scenario.Spec) study { return study{spec: &s} },
	"fig9":           gridStudy(figure9),
	"fig10":          gridStudy(figure10),
	"fig11":          gridStudy(figure11),
	"ext-scale": func(s scenario.Spec) study {
		seed := s.Seed + 100
		s.Systems = []string{"DCS", "DawningCloud"}
		s.Providers = []scenario.ProviderSpec{{Name: "org", Count: scaleProviders, Seed: &seed, Source: s.Providers[0].Source}}
		s.Sweep = &scenario.SweepSpec{Scale: true}
		return study{spec: &s}
	},
	"ext-backfill": func(s scenario.Spec) study {
		s = singleNASA(s)
		return study{spec: &s, easy: true}
	},
	"ext-provision-strict": provisionStudy("grant-or-reject"),
	"ext-provision-effort": provisionStudy("best-effort"),
}

// ArtifactIDs lists every addressable artifact in paper order: the
// vocabulary shared by dawningbench's -experiment flag, the public
// SubmitRequest.Experiments union arm and dcserve's suite requests.
func ArtifactIDs() []string {
	ids := make([]string, len(recipes))
	for i, r := range recipes {
		ids[i] = r.id
	}
	return ids
}

// expandIDs normalizes a requested artifact list: "all" expands
// to the paper's eleven Section 4 artifacts (its historical meaning),
// "extensions" to the three extension studies, and unknown IDs fail
// with the full vocabulary. The result preserves request order with
// duplicates removed.
func expandIDs(ids []string) ([]string, error) {
	var out []string
	seen := make(map[string]bool)
	add := func(id string) {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	for _, raw := range ids {
		id := strings.ToLower(strings.TrimSpace(raw))
		if id == "all" || id == "extensions" {
			for _, r := range recipes {
				if r.ext == (id == "extensions") {
					add(r.id)
				}
			}
			continue
		}
		if _, ok := recipeByID(id); !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q (known: all, extensions, %s)",
				raw, strings.Join(ArtifactIDs(), ", "))
		}
		add(id)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: no artifact IDs requested")
	}
	return out, nil
}

// Plan is a validated artifact request: the expanded artifact IDs and
// the distinct studies they render from, derived from the paper-baseline
// built-in at the request's seed and days.
type Plan struct {
	// IDs are the expanded artifact IDs, in request order.
	IDs []string

	keys    []string // distinct study keys, in first-use order
	studies map[string]study
}

// paperSpec is the paper-baseline built-in at seed and days, the spec
// every study derives from. The Montage workflow is submitted mid-window
// during a busy morning hour, (days/2)·86400 + 39600 seconds in, so the
// consolidated peak reflects coexisting workloads.
func paperSpec(seed int64, days int) (*scenario.Spec, error) {
	base, err := scenario.Builtin("paper-baseline")
	if err != nil {
		return nil, err
	}
	base.Seed, base.Days = seed, days
	for i := range base.Providers {
		if base.Providers[i].Name == MontageProvider {
			base.Providers[i].Source.SubmitAt = sim.Time(days/2)*sim.Day + 11*sim.Hour
		}
	}
	return base, nil
}

// NewPlan expands ids (see expandIDs) and derives and validates
// every study the artifacts need, so a bad seed or window fails here
// rather than inside a queued run.
func NewPlan(seed int64, days int, ids []string) (*Plan, error) {
	expanded, err := expandIDs(ids)
	if err != nil {
		return nil, err
	}
	base, err := paperSpec(seed, days)
	if err != nil {
		return nil, err
	}
	p := &Plan{IDs: expanded, studies: make(map[string]study)}
	for _, id := range expanded {
		r, _ := recipeByID(id)
		for _, key := range r.studies {
			if _, ok := p.studies[key]; ok {
				continue
			}
			st := studies[key](*base)
			st.spec.Name = key
			if err := st.spec.Validate(); err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", id, err)
			}
			p.studies[key] = st
			p.keys = append(p.keys, key)
		}
	}
	return p, nil
}

// Run executes the plan's studies one after another, each with up to
// workers concurrent cells (0 = all CPUs, 1 = the serial reference), and
// renders the artifacts in request order. Artifact content is identical
// at any worker count. sink receives the scenario engine's run and cell
// events plus one TableRendered per artifact; nil discards them.
func (p *Plan) Run(ctx context.Context, workers int, sink events.Sink) ([]Artifact, error) {
	out := make(map[string]outcome, len(p.keys))
	for _, key := range p.keys {
		o, err := p.studies[key].run(ctx, workers, sink)
		if err != nil {
			return nil, err
		}
		out[key] = o
	}
	arts := make([]Artifact, len(p.IDs))
	for i, id := range p.IDs {
		r, _ := recipeByID(id)
		in := make([]outcome, len(r.studies))
		for j, key := range r.studies {
			in[j] = out[key]
		}
		a, err := r.render(in)
		if err != nil {
			return nil, err
		}
		sink.Emit(events.TableRendered{ID: a.ID, Title: a.Title})
		arts[i] = a
	}
	return arts, nil
}

// run compiles and executes the study's spec, then the EASY arm when the
// study has one: RunWithBackfill's descriptor over the spec's compiled
// workloads, which Compile already validated and runners only read.
func (st study) run(ctx context.Context, workers int, sink events.Sink) (outcome, error) {
	c, err := scenario.Compile(st.spec)
	if err != nil {
		return outcome{}, err
	}
	rep, err := c.RunContext(ctx, workers, sink)
	if err != nil {
		return outcome{}, err
	}
	o := outcome{rep: rep}
	if st.easy {
		const cell = "easy-backfill"
		sink.Emit(events.RunStarted{System: "DawningCloud", Providers: len(c.Workloads), Cell: cell})
		o.easy, err = core.System(core.Config{EasyBackfill: true}).Execute(ctx, c.Workloads, c.Options, nil)
		sink.Emit(events.RunCompleted{System: "DawningCloud", Cell: cell, Err: err, TotalNodeHours: o.easy.TotalNodeHours})
		if err != nil {
			return outcome{}, fmt.Errorf("experiments: %s: run %s: %w", st.spec.Name, cell, err)
		}
	}
	return o, nil
}
