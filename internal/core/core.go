// Package core assembles DawningCloud, the paper's enabling system for the
// dynamic service provision (DSP) model: a Common Service Framework owned
// by the resource provider plus one thin runtime environment per service
// provider, consolidated on a single cloud platform.
//
// Its instance reproduces the emulated DawningCloud of the paper's Figure 6:
// the resource provision service, one HTC server and scheduler per HTC
// provider, one MTC server, scheduler and trigger monitor per MTC provider,
// and a job emulator feeding traces and workflow files on the virtual
// clock. MTC runtime environments destroy themselves when their computing
// service finishes, releasing the initial lease; HTC runtime environments
// live through the whole accounting window.
package core

import (
	"fmt"

	"repro/internal/csf"
	"repro/internal/job"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/systems"
	"repro/internal/tre"
)

// Config extends the shared run options with DawningCloud-specific knobs.
type Config struct {
	systems.Options
	// EasyBackfill swaps the HTC dispatch policy for EASY backfilling,
	// the scheduler ablation.
	EasyBackfill bool
	// DeployDelay and StartDelay emulate TRE creation latency.
	DeployDelay sim.Time
	StartDelay  sim.Time
}

// System returns DawningCloud's descriptor under cfg's DawningCloud-only
// knobs (cfg.Options is ignored; each run supplies its own). The
// registry holds System(Config{}); registry.Describe(System(cfg)) runs
// an ablation with validation.
//
// Runs are safe to execute concurrently: every piece of mutable state
// (engine, pool, accountant, provision service, servers) is constructed
// per run, and workloads are only read — jobs are immutable by contract
// (see job.Job). Callers that retune or resort workloads between
// concurrent runs must pass clones (systems.CloneWorkloads).
//
// On the default (unbounded) pool every dynamic grant succeeds
// regardless of what other providers hold, so per-partition pools of
// the same capacity reproduce the serial run exactly.
func System(cfg Config) *systems.Descriptor {
	return &systems.Descriptor{
		Name: "DawningCloud",
		Open: func(capacity int, opts systems.Options) (systems.Instance, error) {
			c := cfg
			c.Options = opts
			return open(capacity, c)
		},
	}
}

// Instance is an open DawningCloud simulation: a CSF-managed platform
// with one thin runtime environment per attached provider.
type Instance struct {
	systems.Platform
	cfg       Config
	framework *csf.Framework
}

// open opens an empty DawningCloud instance over a pool of capacity
// nodes.
func open(capacity int, cfg Config) (*Instance, error) {
	p, err := systems.NewPlatform("DawningCloud", false, capacity, cfg.Options)
	if err != nil {
		return nil, err
	}
	framework := csf.NewFramework(p.Sim, p.Prov)
	framework.DeployDelay = cfg.DeployDelay
	framework.StartDelay = cfg.StartDelay
	return &Instance{Platform: p, cfg: cfg, framework: framework}, nil
}

// Attach implements systems.Instance: the provider's thin runtime
// environment is created through the CSF lifecycle at its first
// submission and its job arrivals are scheduled on the instance clock.
func (x *Instance) Attach(wl *systems.Workload) error { return x.attach(wl, nil, nil) }

// AttachStream implements systems.Instance.
func (x *Instance) AttachStream(wl *systems.Workload, src stream.Source, f *stream.Feeder) error {
	return x.attach(wl, src, f)
}

// attach creates wl's thin runtime environment and feeds it, from the
// materialized job slice when f is nil (HTC jobs arrive individually;
// MTC workflows are submitted whole at their first task's submission).
func (x *Instance) attach(wl *systems.Workload, src stream.Source, f *stream.Feeder) error {
	if err := x.Admit(wl, src); err != nil {
		return err
	}
	cfg := tre.Config{Name: wl.Name, Params: wl.Params}
	if wl.Class == job.HTC {
		cfg.EasyBackfill = x.cfg.EasyBackfill
		srv, err := tre.NewHTCServer(x.Sim, x.Prov, cfg)
		if err != nil {
			return err
		}
		x.Collect(systems.ServerAgg(wl, srv))
		return systems.FeedJobs(x.Sim, f, wl, src, x.createTRE(wl.Name, "HTC", srv.Start), srv.Submit)
	}
	cfg.DestroyOnCompletion = true
	srv, err := tre.NewMTCServer(x.Sim, x.Prov, cfg)
	if err != nil {
		return err
	}
	x.Collect(systems.ServerAgg(wl, srv))
	return systems.FeedActions(x.Sim, f, wl, systems.MTCWorkflowActions(srv.SubmitWorkflow, wl.Name, wl.Jobs, "core"),
		x.createTRE(wl.Name, "MTC", srv.Start))
}

// createTRE issues the CSF create-and-start lifecycle for a thin runtime
// environment at the provider's first submission.
func (x *Instance) createTRE(name, kind string, start func() error) func(first sim.Time) {
	return func(first sim.Time) {
		x.Sim.At(first, func() {
			_, err := x.framework.CreateTRE(name, kind, func() {
				if err := start(); err != nil {
					panic(fmt.Sprintf("core: start TRE %s: %v", name, err))
				}
			})
			if err != nil {
				panic(fmt.Sprintf("core: create TRE %s: %v", name, err))
			}
		})
	}
}
