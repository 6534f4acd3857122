package systems

import (
	"fmt"

	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/tre"
)

// neverRatio is a threshold ratio no finite queue exceeds, disabling DR1
// for fixed-size runtime environments.
const neverRatio = 1e18

// DCS is the dedicated cluster system model: every service provider
// owns a fixed-size cluster sized by FixedNodes, with the same queueing
// behaviour as SSP. Consumption is size x period; no adjustments are
// counted because the provider owns the machines.
//
// Fixed-system providers only couple through the shared pool: with the
// derived capacity (sum of FixedNodes) and every MTC job fitting its own
// RE, no provider ever observes another's free capacity, so per-partition
// pools sized the same way behave identically.
var DCS = &Descriptor{
	Name:          "DCS",
	Open:          func(capacity int, opts Options) (Instance, error) { return openFixed("DCS", true, capacity, opts) },
	FixedCapacity: true,
	Isolated:      mtcFitsFixed,
	Owned:         true,
}

// SSP is the static service provision model (Evangelinos et al.): each
// provider leases a fixed-size virtual cluster from the cloud for the
// whole period and runs a queuing system on it. Performance matches DCS
// by construction; only ownership (TCO, adjustments) differs.
var SSP = &Descriptor{
	Name:          "SSP",
	Open:          func(capacity int, opts Options) (Instance, error) { return openFixed("SSP", false, capacity, opts) },
	FixedCapacity: true,
	Isolated:      mtcFitsFixed,
}

// FixedInstance is an open DCS/SSP simulation — the emulated system of
// Figure 8: per-provider servers and schedulers with fixed resources and
// no resource provision service interaction after startup.
type FixedInstance struct {
	Platform
}

func openFixed(system string, owned bool, capacity int, opts Options) (*FixedInstance, error) {
	p, err := NewPlatform(system, owned, capacity, opts)
	if err != nil {
		return nil, err
	}
	return &FixedInstance{p}, nil
}

// Attach implements Instance.
func (x *FixedInstance) Attach(wl *Workload) error { return x.attach(wl, nil, nil) }

// AttachStream implements Instance.
func (x *FixedInstance) AttachStream(wl *Workload, src stream.Source, f *stream.Feeder) error {
	return x.attach(wl, src, f)
}

// attach creates wl's fixed-size runtime environment and feeds it, from
// the materialized job slice when src is nil.
func (x *FixedInstance) attach(wl *Workload, src stream.Source, f *stream.Feeder) error {
	if err := x.Admit(wl, src); err != nil {
		return err
	}
	cfg := tre.Config{Name: wl.Name, Params: fixedParams(wl)}
	if wl.Class == job.HTC {
		srv, err := tre.NewHTCServer(x.Sim, x.Prov, cfg)
		if err != nil {
			return err
		}
		x.Collect(ServerAgg(wl, srv))
		return FeedJobs(x.Sim, f, wl, src, func(first sim.Time) { startAt(x.Sim, first, srv.Start) }, srv.Submit)
	}
	cfg.DestroyOnCompletion = true
	srv, err := tre.NewMTCServer(x.Sim, x.Prov, cfg)
	if err != nil {
		return err
	}
	x.Collect(ServerAgg(wl, srv))
	FeedActions(x.Sim, wl, MTCWorkflowActions(srv.SubmitWorkflow, wl.Name, wl.Jobs, "systems"),
		func(first sim.Time) { startAt(x.Sim, first, srv.Start) })
	return nil
}

// fixedParams derives the runtime-environment policy parameters the
// fixed-size systems use for wl.
func fixedParams(wl *Workload) policy.Params {
	params := policy.Params{
		InitialNodes:      wl.FixedNodes,
		ThresholdRatio:    neverRatio,
		ScanInterval:      wl.Params.ScanInterval,
		IdleCheckInterval: wl.Params.IdleCheckInterval,
	}
	if params.ScanInterval <= 0 {
		params.ScanInterval = 60
	}
	if params.IdleCheckInterval <= 0 {
		params.IdleCheckInterval = 3600
	}
	return params
}

// startAt runs start on the virtual clock at time t (immediately when the
// clock is already there), converting start errors into panics carrying
// context: server startup failure is a configuration error, and the paper's
// provision policy guarantees initial grants on an adequately sized pool.
func startAt(engine *sim.Engine, t sim.Time, start func() error) {
	engine.At(t, func() {
		if err := start(); err != nil {
			panic(fmt.Sprintf("systems: server start at t=%d: %v", t, err))
		}
	})
}
