package main

import (
	"fmt"
	"io"
	"time"

	"heroserve/internal/collective"
	"heroserve/internal/core"
	"heroserve/internal/model"
	"heroserve/internal/netsim"
	"heroserve/internal/planner"
	"heroserve/internal/scheduler"
	"heroserve/internal/serving"
	"heroserve/internal/telemetry"
	"heroserve/internal/telemetry/slo"
	"heroserve/internal/topology"
	"heroserve/internal/workload"
)

// spec is one benchmark workload: a seeded open-loop Poisson trace replayed
// through a HeroServe deployment on the testbed topology.
type spec struct {
	name     string
	kind     workload.Kind
	model    func() model.Config
	requests int     // requests per trace
	traces   int     // distinct traces per run
	rate     float64 // offered Poisson arrival rate, req/s
	// The deployment is planned once from fixed profile statistics (the
	// first planBatch requests of a seed-1 profile trace) for planLambda,
	// so every seed replays its trace against the same deployment.
	planLambda    float64
	planBatch     int
	minTensDecode int
	sla           serving.SLA
	// contended adds the Fig. 7 background traffic: four 512 MiB elephant
	// lanes plus a BurstTrain of 64 MiB flows, seeded from the trace seed.
	contended bool
	// observed arms the telemetry stack of `serve -trace-out -metrics-out
	// -decisions-out -alerts-out`: hub, streaming tracer, SLA verdicts,
	// default SLO rules, decision ledger and critical-path analyzer.
	observed bool
}

var specs = []spec{
	{
		name: "chatbot-flood", kind: workload.Chatbot, model: model.OPT13B,
		requests: 20000, traces: 10, rate: 200,
		planLambda: 30, planBatch: 32,
		sla: serving.SLA{TTFT: 2.5, TPOT: 0.15},
	},
	{
		name: "summarization-contended", kind: workload.Summarization, model: model.OPT66B,
		requests: 1000, traces: 2, rate: 0.1,
		planLambda: 0.1, planBatch: 1, minTensDecode: 8,
		sla:       serving.SLA{TTFT: 15, TPOT: 0.15},
		contended: true,
	},
	{
		name: "chatbot-observed", kind: workload.Chatbot, model: model.OPT13B,
		requests: 2000, traces: 12, rate: 32,
		planLambda: 30, planBatch: 32,
		sla:      serving.SLA{TTFT: 2.5, TPOT: 0.15},
		observed: true,
	},
}

func specByName(name string) (*spec, error) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// profileSeed seeds the profile trace the deployment is planned from.
const profileSeed = 1

// elephant and burst parameters of the contended workload (Fig. 7).
const (
	elephantLanes = 4
	elephantBytes = 512 << 20
	burstRate     = 3
	burstFlows    = 6
	burstBytes    = 64 << 20
	// backgroundTail keeps background traffic running this many simulated
	// seconds past the last arrival, so the last requests are contended too.
	backgroundTail = 60
)

// setup is one prepared run: the generated trace, the plan, and the timing
// of each set-up step.
type setup struct {
	spec  *spec
	seed  int64
	trace *workload.Trace
	in    planner.Inputs
	plan  *planner.Plan

	generate time.Duration
	solve    time.Duration
}

// prepare generates the trace for seed and plans the deployment.
func prepare(sp *spec, seed int64) (*setup, error) {
	t0 := time.Now()
	trace := workload.NewGenerator(sp.kind, seed).Generate(sp.requests, sp.rate)
	t1 := time.Now()
	g := topology.Testbed()
	pre, dec := planner.SplitPoolsByServer(g, 2)
	in := planner.Inputs{
		Model:         sp.model(),
		Graph:         g,
		PrefillGPUs:   pre,
		DecodeGPUs:    dec,
		Workload:      workload.NewGenerator(sp.kind, profileSeed).Generate(512, 1).BatchStats(sp.planBatch),
		Lambda:        sp.planLambda,
		SLA:           sp.sla,
		MinTensDecode: sp.minTensDecode,
		Seed:          profileSeed,
	}
	plan, err := core.Plan(in)
	if err != nil {
		return nil, fmt.Errorf("plan %s: %w", sp.name, err)
	}
	return &setup{spec: sp, seed: seed, trace: trace, in: in, plan: plan,
		generate: t1.Sub(t0), solve: time.Since(t1)}, nil
}

// mode selects how a run's system is built.
type mode uint8

const (
	// modeMeasured is the system under test exactly as users build it:
	// core.NewSystem, with telemetry armed on observed workloads.
	modeMeasured mode = iota
	// modeTraced hand-builds the same HeroServe system with pass-through
	// wrappers at every module boundary reporting into a tracer.
	modeTraced
	// modeBare is modeMeasured with telemetry off (the observed workload's
	// twin for the telemetry tax).
	modeBare
)

// instance is one built system, ready to Run once.
type instance struct {
	sys    *serving.System
	pol    *core.OnlinePolicy
	hub    *telemetry.Hub // nil without telemetry
	sink   *sink          // the tracer's writer, nil without telemetry
	traced *tracedPolicy  // nil unless modeTraced
}

// build constructs the system for one run. traceDst receives the telemetry
// trace (observed workloads only); tr is the tracer of a modeTraced run.
func (s *setup) build(m mode, traceDst io.Writer, tr *tracer) (*instance, error) {
	sp := s.spec
	inst := &instance{}
	var opts serving.Options
	if sp.observed && m != modeBare {
		inst.hub = telemetry.New()
		inst.sink = &sink{w: traceDst, tr: tr}
		if err := inst.hub.Trace.StreamTo(inst.sink); err != nil {
			return nil, err
		}
		sla := sp.sla
		opts.Telemetry = inst.hub
		opts.SLA = &sla
		opts.SLO = &slo.Config{Rules: slo.DefaultRules(sla.TTFT, sla.TPOT)}
	}
	var err error
	if m == modeTraced {
		inst.sys, inst.pol, inst.traced, err = s.buildTraced(opts, tr)
	} else {
		inst.sys, _, inst.pol, err = core.NewSystem(s.in, s.plan, opts)
	}
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", sp.name, err)
	}
	if sp.contended {
		horizon := s.trace.Duration() + backgroundTail
		inst.sys.InjectBursts(workload.BurstTrain(s.seed+7, horizon, burstRate, burstFlows, burstBytes), s.seed+101)
		inst.sys.InjectElephants(elephantLanes, elephantBytes, horizon, s.seed+211)
	}
	return inst, nil
}

// buildTraced assembles HeroServe by hand, as core.NewSystem does, with a
// pass-through policy around core.OnlinePolicy, a pass-through router around
// the load-aware router, and the tracer on the engine and the network.
func (s *setup) buildTraced(opts serving.Options, tr *tracer) (*serving.System, *core.OnlinePolicy, *tracedPolicy, error) {
	pol := core.NewOnlinePolicy(scheduler.DefaultConfig())
	wrapped := &tracedPolicy{inner: pol, tr: tr}
	opts.Policy = wrapped
	g := s.in.Graph
	opts.RouterFactory = func(net *netsim.Network) collective.Router {
		r := collective.NewLoadAwareRouter(g, 3)
		r.Bind(net)
		return &tracedRouter{inner: r, tr: tr}
	}
	sys, err := serving.New(g, s.plan.Deployment, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	pol.Injector = sys.FaultInjector()
	pol.Ledger = sys.DecisionLedger()
	pol.Shares = sys.StageShares()
	tr.eng = sys.Engine()
	sys.Engine().SetProfiler(tr)
	sys.Network().SetPerf(tr)
	return sys, pol, wrapped, nil
}

// exports writes the end-of-run telemetry exports `serve` writes with
// -trace-out -metrics-out -decisions-out -alerts-out, into w.
func (inst *instance) exports(w io.Writer) error {
	if inst.hub == nil {
		return nil
	}
	if err := inst.hub.Trace.CloseStream(); err != nil {
		return fmt.Errorf("trace export: %w", err)
	}
	if err := inst.hub.Metrics.WriteProm(w); err != nil {
		return fmt.Errorf("metrics export: %w", err)
	}
	if err := inst.sys.DecisionLedger().WriteJSON(w); err != nil {
		return fmt.Errorf("decisions export: %w", err)
	}
	if err := inst.sys.SLOMonitor().WriteLog(w); err != nil {
		return fmt.Errorf("alerts export: %w", err)
	}
	return nil
}
