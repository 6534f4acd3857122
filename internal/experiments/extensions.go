package experiments

import (
	"fmt"

	"repro/internal/plot"
	"repro/internal/scenario"
	"repro/internal/systems"
)

// This file renders studies beyond the paper's evaluation: the paper's
// conclusion asks for "a more formal framework to model the generalized
// case in that n resource provider provisions resources to m service
// providers" and for investigating "the optimal resource management and
// scheduling policies". The scale study and the backfill and provision
// ablations are concrete first steps on those questions using the same
// machinery.

// Extension study parameters: the scale study consolidates up to
// scaleProviders distinct-seed NASA-like organizations, and the
// provision ablation constrains the cloud to provisionCapacity nodes.
const (
	scaleProviders    = 5
	provisionCapacity = 160
)

// scaleArtifact renders the economies-of-scale curve: DSP savings against
// per-organization dedicated clusters as 1..n HTC providers consolidate.
func scaleArtifact(rep *scenario.Report) Artifact {
	xs := make([]string, len(rep.Scale))
	saved := make([]float64, len(rep.Scale))
	peaks := make([]float64, len(rep.Scale))
	values := make(map[string]float64)
	for i, p := range rep.Scale {
		xs[i] = fmt.Sprintf("%d", p.Providers)
		saved[i] = p.SavedFraction * 100
		peaks[i] = float64(p.PeakNodes)
		values[fmt.Sprintf("saved_pct_n%d", p.Providers)] = saved[i]
	}
	series := []plot.Series{
		{Label: "DSP saving vs dedicated clusters (%)", Y: saved},
		{Label: "DSP peak nodes", Y: peaks},
	}
	return Artifact{
		ID:    "ext-scale",
		Title: "Extension: economies of scale vs number of consolidated providers",
		Text: plot.LineTable("Extension: DSP savings as providers consolidate",
			"providers", xs, series,
			"each provider is a distinct-seed NASA-like organization"),
		SVG: plot.LineChartSVG("DSP savings vs consolidation size",
			"providers", "percent / nodes", xs, series),
		PaperRef: "paper future work: generalize to n providers; savings should persist or grow with consolidation",
		Values:   values,
	}
}

// nasaResult returns the NASA provider's row of a single-provider
// DawningCloud run.
func nasaResult(r systems.Result, arm string) (systems.ProviderResult, error) {
	p, ok := r.Provider(NASAProvider)
	if !ok {
		return systems.ProviderResult{}, fmt.Errorf("experiments: provider %s missing from the %s run", NASAProvider, arm)
	}
	return p, nil
}

// backfillArtifact compares the paper's First-Fit HTC dispatch (the
// single-NASA report) with EASY backfilling (the run of the same
// compiled workloads under the backfilling DawningCloud descriptor).
func backfillArtifact(ff *scenario.Report, easy systems.Result) (Artifact, error) {
	pf, err := nasaResult(ff.Base["DawningCloud"], "first-fit")
	if err != nil {
		return Artifact{}, err
	}
	pe, err := nasaResult(easy, "EASY backfill")
	if err != nil {
		return Artifact{}, err
	}
	rows := [][]string{
		{"first-fit (paper)", fmt.Sprintf("%d", pf.Completed), fmt.Sprintf("%.0f", pf.NodeHours)},
		{"EASY backfill", fmt.Sprintf("%d", pe.Completed), fmt.Sprintf("%.0f", pe.NodeHours)},
	}
	return Artifact{
		ID:    "ext-backfill",
		Title: "Extension: HTC dispatch ablation (" + NASAProvider + ")",
		Text: plot.Table("Extension: First-Fit vs EASY backfilling under DawningCloud",
			[]string{"scheduler", "completed jobs", "node*hours"}, rows,
			"the paper's policy avoids runtime estimates; EASY needs them"),
		PaperRef: "not in the paper; scheduling-policy future work",
		Values: map[string]float64{
			"firstfit_nodehours": pf.NodeHours,
			"easy_nodehours":     pe.NodeHours,
			"firstfit_completed": float64(pf.Completed),
			"easy_completed":     float64(pe.Completed),
		},
	}, nil
}

// provisionArtifact contrasts the paper's grant-or-reject provision
// policy with best-effort partial grants on a capacity-constrained
// cloud, one single-NASA report per policy.
func provisionArtifact(strictRep, effortRep *scenario.Report) (Artifact, error) {
	strict, effort := strictRep.Base["DawningCloud"], effortRep.Base["DawningCloud"]
	ps, err := nasaResult(strict, "grant-or-reject")
	if err != nil {
		return Artifact{}, err
	}
	pe, err := nasaResult(effort, "best-effort")
	if err != nil {
		return Artifact{}, err
	}
	rows := [][]string{
		{"grant-or-reject (paper)", fmt.Sprintf("%d", ps.Completed),
			fmt.Sprintf("%.0f", ps.NodeHours), fmt.Sprintf("%d", strict.RejectedRequests)},
		{"best-effort", fmt.Sprintf("%d", pe.Completed),
			fmt.Sprintf("%.0f", pe.NodeHours), fmt.Sprintf("%d", effort.RejectedRequests)},
	}
	return Artifact{
		ID: "ext-provision",
		Title: fmt.Sprintf("Extension: provision-policy ablation (%s, %d-node cloud)",
			NASAProvider, strictRep.Spec.Pool.Capacity),
		Text: plot.Table("Extension: provision policies on a constrained pool",
			[]string{"policy", "completed jobs", "node*hours", "rejections"}, rows, ""),
		PaperRef: "paper future work: optimal resource management policies",
		Values: map[string]float64{
			"strict_completed": float64(ps.Completed),
			"effort_completed": float64(pe.Completed),
			"strict_rejected":  float64(strict.RejectedRequests),
			"effort_rejected":  float64(effort.RejectedRequests),
		},
	}, nil
}
