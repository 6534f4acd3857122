package experiments

import (
	"fmt"

	"repro/internal/plot"
	"repro/internal/scenario"
)

// Paper sweep grids (Section 4.5.1): B from 10 to 80; R from 1.0 to 2.0
// for HTC and from 2 to 16 for MTC.
var (
	sweepInitials  = []int{10, 20, 40, 80}
	sweepRatiosHTC = []float64{1.0, 1.2, 1.5, 2.0}
	sweepRatiosMTC = []float64{2, 4, 8, 16}
)

// sweepFigure is one of Figures 9-11: DawningCloud over a B×R grid for
// one paper-baseline provider in isolation, the paper's parameter-tuning
// methodology.
type sweepFigure struct {
	id, title string
	provider  string
	mtc       bool // plot tasks/second instead of completed jobs
	paperRef  string
}

var (
	figure9 = sweepFigure{
		id:       "fig9",
		title:    "Figure 9: resource consumption and completed jobs vs parameters, BLUE trace",
		provider: BLUEProvider,
		paperRef: "paper: chooses B80_R1.5 to save consumption while preserving throughput",
	}
	figure10 = sweepFigure{
		id:       "fig10",
		title:    "Figure 10: resource consumption and completed jobs vs parameters, NASA trace",
		provider: NASAProvider,
		paperRef: "paper: chooses B40_R1.2",
	}
	figure11 = sweepFigure{
		id:       "fig11",
		title:    "Figure 11: resource consumption and tasks/second vs parameters, Montage",
		provider: MontageProvider,
		mtc:      true,
		paperRef: "paper: chooses B10_R8",
	}
)

// grid is the figure's sweep axis over its provider.
func (f sweepFigure) grid() *scenario.GridSpec {
	rs := sweepRatiosHTC
	if f.mtc {
		rs = sweepRatiosMTC
	}
	return &scenario.GridSpec{Provider: f.provider, B: sweepInitials, R: rs}
}

// render draws the grid report as the paper's paired consumption/
// performance view. Completed counts finished jobs (or workflow tasks)
// and tasks/second is the MTC throughput; the plotted performance metric
// is fixed by the figure, so a sweep surface never splices incomparable
// units.
func (f sweepFigure) render(rep *scenario.Report) Artifact {
	perfLabel := "completed jobs"
	if f.mtc {
		perfLabel = "tasks/second"
	}
	points := rep.Grid
	xs := make([]string, len(points))
	consumption := make([]float64, len(points))
	perf := make([]float64, len(points))
	values := make(map[string]float64, 4*len(points))
	for i, p := range points {
		key := fmt.Sprintf("B%d_R%g", p.B, p.R)
		xs[i] = key
		consumption[i] = p.NodeHours
		perf[i] = float64(p.Completed)
		if f.mtc {
			perf[i] = p.TasksPerSecond
		}
		values["nodehours_"+key] = p.NodeHours
		values["perf_"+key] = perf[i]
		values["completed_"+key] = float64(p.Completed)
		values["tps_"+key] = p.TasksPerSecond
	}
	series := []plot.Series{
		{Label: "resource consumption (node*hour)", Y: consumption},
		{Label: perfLabel, Y: perf},
	}
	return Artifact{
		ID:    f.id,
		Title: f.title,
		Text: plot.LineTable(f.title, "parameters", xs, series,
			"DawningCloud only; each row is one (B, R) configuration; "+
				"performance column plots "+perfLabel),
		SVG:      plot.LineChartSVG(f.title, "parameters (B, R)", "value", xs, series),
		PaperRef: f.paperRef,
		Values:   values,
	}
}
