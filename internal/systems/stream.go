package systems

import (
	"fmt"

	"repro/internal/job"
	"repro/internal/sim"
)

// WorkflowGroup is one workflow of an MTC workload: its tasks in
// workload order and the submission time (earliest task submit).
type WorkflowGroup struct {
	Key   string
	At    sim.Time
	Tasks []*job.Job
}

// Action is one attach-time event: a closure to run At its time.
type Action struct {
	At  sim.Time
	Run func()
}

// WorkflowGroups splits jobs into workflows in first-seen order — the
// order every MTC attach path schedules them, which sets same-time ties.
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
	}
	return groups
}

// MTCWorkflowActions builds one submission action per workflow, in
// first-seen order, for FeedActions. errPrefix labels the panic on a
// rejected submission.
func MTCWorkflowActions(submit func([]*job.Job) error, name string, jobs []job.Job, errPrefix string) []Action {
	groups := WorkflowGroups(jobs)
	actions := make([]Action, 0, len(groups))
	for _, g := range groups {
		g := g
		actions = append(actions, Action{At: g.At, Run: func() {
			if err := submit(g.Tasks); err != nil {
				panic(fmt.Sprintf("%s: submit workflow %s/%s: %v", errPrefix, name, g.Key, err))
			}
		}})
	}
	return actions
}
