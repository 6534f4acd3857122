package experiments

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/job"
	"repro/internal/par"
	"repro/internal/plot"
	"repro/internal/systems"
)

// Paper sweep grids (Section 4.5.1): B from 10 to 80; R from 1.0 to 2.0
// for HTC and from 2 to 16 for MTC.
var (
	SweepInitials  = []int{10, 20, 40, 80}
	SweepRatiosHTC = []float64{1.0, 1.2, 1.5, 2.0}
	SweepRatiosMTC = []float64{2, 4, 8, 16}
)

// SweepPoint is one parameter combination's outcome. Both performance
// quantities are recorded separately so a sweep surface never splices
// incomparable units: Completed counts finished jobs (or workflow tasks)
// and TasksPerSecond is the MTC throughput (zero for HTC workloads).
type SweepPoint struct {
	B         int
	R         float64
	NodeHours float64
	// Completed is the number of jobs (HTC) or workflow tasks (MTC)
	// finished within the accounting window.
	Completed int
	// TasksPerSecond is the MTC throughput; it stays 0 for HTC
	// workloads rather than standing in for a job count.
	TasksPerSecond float64
	// Perf is the metric the corresponding paper figure plots, chosen
	// by workload class: Completed for HTC (Figures 9-10),
	// TasksPerSecond for MTC (Figure 11).
	Perf float64
}

// Sweep runs DawningCloud over the B x R grid for one provider's workload
// in isolation, the paper's parameter-tuning methodology. See
// SweepContext; Sweep uses the background context.
func (s *Suite) Sweep(provider string, bs []int, rs []float64) ([]SweepPoint, error) {
	return s.SweepContext(context.Background(), provider, bs, rs) //dclint:allow ctxfirst -- documented non-ctx convenience wrapper over SweepContext
}

// SweepContext runs the B x R grid with cancellation support. Grid points
// are independent simulations, so they fan out over the suite's worker
// pool; the returned slice is always in b-major, r-minor grid order
// regardless of scheduling. Each point deep-clones the base workload
// before retuning it, so no grid point ever aliases the cached workloads
// or another point.
func (s *Suite) SweepContext(ctx context.Context, provider string, bs []int, rs []float64) ([]SweepPoint, error) {
	base, err := s.workloadByName(provider)
	if err != nil {
		return nil, err
	}
	opts := s.Options()
	points := make([]SweepPoint, len(bs)*len(rs))
	var done atomic.Int64
	err = par.ForEach(s.workers(), len(points), func(i int) error {
		b, r := bs[i/len(rs)], rs[i%len(rs)]
		var res systems.Result
		err := s.simulate(func() (err error) {
			wl := base.Clone()
			wl.Params.InitialNodes = b
			wl.Params.ThresholdRatio = r
			res, err = runDawningCloud(ctx, []systems.Workload{wl}, core.Config{Options: opts})
			return err
		})
		if err != nil {
			return fmt.Errorf("experiments: sweep %s B%d R%g: %w", provider, b, r, err)
		}
		s.Events.Emit(events.CellCompleted{
			Index: int(done.Add(1)),
			Total: len(points),
			Key:   fmt.Sprintf("sweep|%s|B%d|R%g", provider, b, r),
		})
		p, ok := res.Provider(provider)
		if !ok {
			return fmt.Errorf("experiments: sweep %s B%d R%g: provider missing", provider, b, r)
		}
		pt := SweepPoint{
			B:              b,
			R:              r,
			NodeHours:      p.NodeHours,
			Completed:      p.Completed,
			TasksPerSecond: p.TasksPerSecond,
		}
		if base.Class == job.MTC {
			pt.Perf = p.TasksPerSecond
		} else {
			pt.Perf = float64(p.Completed)
		}
		points[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// sweepArtifact renders a sweep as the paper's paired consumption/
// performance view.
func sweepArtifact(id, title, perfLabel, paperRef string, points []SweepPoint) Artifact {
	xs := make([]string, len(points))
	consumption := make([]float64, len(points))
	perf := make([]float64, len(points))
	values := make(map[string]float64, 4*len(points))
	for i, p := range points {
		key := fmt.Sprintf("B%d_R%g", p.B, p.R)
		xs[i] = key
		consumption[i] = p.NodeHours
		perf[i] = p.Perf
		values["nodehours_"+key] = p.NodeHours
		values["perf_"+key] = p.Perf
		values["completed_"+key] = float64(p.Completed)
		values["tps_"+key] = p.TasksPerSecond
	}
	series := []plot.Series{
		{Label: "resource consumption (node*hour)", Y: consumption},
		{Label: perfLabel, Y: perf},
	}
	return Artifact{
		ID:    id,
		Title: title,
		Text: plot.LineTable(title, "parameters", xs, series,
			"DawningCloud only; each row is one (B, R) configuration; "+
				"performance column plots "+perfLabel),
		SVG:      plot.LineChartSVG(title, "parameters (B, R)", "value", xs, series),
		PaperRef: paperRef,
		Values:   values,
	}
}

// Figure9 sweeps B and R for the BLUE trace.
func (s *Suite) Figure9(ctx context.Context) (Artifact, error) {
	points, err := s.SweepContext(ctx, BLUEProvider, SweepInitials, SweepRatiosHTC)
	if err != nil {
		return Artifact{}, err
	}
	return s.emitTable(sweepArtifact("fig9",
		"Figure 9: resource consumption and completed jobs vs parameters, BLUE trace",
		"completed jobs",
		"paper: chooses B80_R1.5 to save consumption while preserving throughput",
		points)), nil
}

// Figure10 sweeps B and R for the NASA trace.
func (s *Suite) Figure10(ctx context.Context) (Artifact, error) {
	points, err := s.SweepContext(ctx, NASAProvider, SweepInitials, SweepRatiosHTC)
	if err != nil {
		return Artifact{}, err
	}
	return s.emitTable(sweepArtifact("fig10",
		"Figure 10: resource consumption and completed jobs vs parameters, NASA trace",
		"completed jobs",
		"paper: chooses B40_R1.2",
		points)), nil
}

// Figure11 sweeps B and R for the Montage workload.
func (s *Suite) Figure11(ctx context.Context) (Artifact, error) {
	points, err := s.SweepContext(ctx, MontageProvider, SweepInitials, SweepRatiosMTC)
	if err != nil {
		return Artifact{}, err
	}
	return s.emitTable(sweepArtifact("fig11",
		"Figure 11: resource consumption and tasks/second vs parameters, Montage",
		"tasks/second",
		"paper: chooses B10_R8",
		points)), nil
}

// Artifacts runs every experiment and returns them in paper order. See
// ArtifactsContext; Artifacts uses the background context.
func (s *Suite) Artifacts() ([]Artifact, error) {
	return s.ArtifactsContext(context.Background()) //dclint:allow ctxfirst -- documented non-ctx convenience wrapper over ArtifactsContext
}

// ArtifactsContext runs every experiment with cancellation support. The
// steps fan out over the worker pool: the three sweeps proceed while the
// table and figure steps share the four deduplicated system runs, and the
// suite-wide semaphore keeps total simulation concurrency bounded.
// The paper-order artifact list has one home: artifacts.go's paperIDs,
// which "all" expands to.
func (s *Suite) ArtifactsContext(ctx context.Context) ([]Artifact, error) {
	return s.ArtifactsByID(ctx, "all")
}
