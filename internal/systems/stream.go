package systems

import (
	"fmt"

	"repro/internal/job"
	"repro/internal/sim"
	"repro/internal/stream"
)

// WorkflowGroup is one workflow of an MTC workload: its tasks in
// workload order, the submission time (earliest task submit) and the
// longest task runtime (the lookahead bound for streamed issue).
type WorkflowGroup struct {
	Key   string
	At    sim.Time
	Delta sim.Time
	Tasks []*job.Job
}

// WorkflowGroups splits jobs into workflows in first-seen order — the
// order every materialized MTC attach path schedules them, which
// streamed runs must reproduce for same-time ties.
func WorkflowGroups(jobs []job.Job) []WorkflowGroup {
	index := make(map[string]int)
	var groups []WorkflowGroup
	for i := range jobs {
		j := &jobs[i]
		gi, seen := index[j.Workflow]
		if !seen {
			gi = len(groups)
			index[j.Workflow] = gi
			groups = append(groups, WorkflowGroup{Key: j.Workflow, At: j.Submit})
		}
		g := &groups[gi]
		g.Tasks = append(g.Tasks, j)
		if j.Submit < g.At {
			g.At = j.Submit
		}
		if j.Runtime > g.Delta {
			g.Delta = j.Runtime
		}
	}
	return groups
}

// MTCWorkflowActions builds one submission action per workflow, in
// first-seen order, shared by the materialized attach loops (issued via
// engine.At) and the streamed action lanes (issued by the Feeder).
// errPrefix labels the panic on a rejected submission.
func MTCWorkflowActions(submit func([]*job.Job) error, name string, jobs []job.Job, errPrefix string) []stream.Action {
	groups := WorkflowGroups(jobs)
	actions := make([]stream.Action, 0, len(groups))
	for _, g := range groups {
		g := g
		actions = append(actions, stream.Action{At: g.At, Delta: g.Delta, Run: func() {
			if err := submit(g.Tasks); err != nil {
				panic(fmt.Sprintf("%s: submit workflow %s/%s: %v", errPrefix, name, g.Key, err))
			}
		}})
	}
	return actions
}
