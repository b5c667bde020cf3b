package repro

import (
	"context"
	"fmt"

	"repro/internal/adversary"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/lowerbound"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Spec is a typed run specification accepted by Run: one of GossipSpec,
// ConsensusSpec, LowerBoundSpec or FuzzSpec. The interface is sealed — the
// four spec kinds are the experiments this library knows how to execute.
type Spec interface {
	runSpec()
}

// GossipSpec describes one gossip execution for Run. It has exactly the
// fields of GossipConfig, so a plain conversion moves between them:
// Run(ctx, GossipSpec(cfg)) runs cfg.
type GossipSpec GossipConfig

func (GossipSpec) runSpec() {}

// ConsensusSpec describes one consensus execution for Run; it converts
// to/from ConsensusConfig the same way GossipSpec converts to/from
// GossipConfig.
type ConsensusSpec ConsensusConfig

func (ConsensusSpec) runSpec() {}

// LowerBoundSpec runs the Theorem 1 adaptive adversary against a protocol
// and reports which side of the Ω(n+f²) messages / Ω(f(d+δ)) time
// dichotomy it forced.
type LowerBoundSpec LowerBoundConfig

func (LowerBoundSpec) runSpec() {}

// FuzzSpec runs a deterministic scenario-fuzzing session: random
// adversary/topology/protocol scenarios drawn from the seed, every
// execution checked against the invariant-oracle catalog, and every
// violation shrunk to a minimized, replayable ScenarioReport. The summary
// is a pure function of (Seed, FirstIndex, Runs); cancellation and
// concurrency come from Run's context and WithWorkers.
type FuzzSpec struct {
	// Runs is the number of scenarios to generate and execute.
	Runs int
	// Seed keys the scenario stream.
	Seed int64
	// FirstIndex offsets into the stream (resume/partition sessions).
	FirstIndex int64
	// ShrinkBudget bounds re-executions spent minimizing each failure
	// (0 = the engine default).
	ShrinkBudget int
}

func (FuzzSpec) runSpec() {}

// TelemetryRecorder is the streaming per-run metrics aggregator (O(1) per
// event, mergeable across runs and shards): attach one with WithTelemetry
// and read its Snapshot after Run returns.
type TelemetryRecorder = telemetry.Recorder

// NewTelemetryRecorder returns a recorder for an n-process run.
func NewTelemetryRecorder(n int) *TelemetryRecorder { return telemetry.NewRecorder(n) }

// Option adjusts how Run executes a spec. Options are pure mechanism: none
// of them changes a run's events, results or random draws — a spec's
// outcome is the same for every combination of options (WithLean trims
// what the result materializes, never what happened).
type Option func(*runOptions)

type runOptions struct {
	shards    int
	workers   int
	tracer    Tracer
	telemetry *TelemetryRecorder
	lean      bool
}

func buildOptions(opts []Option) runOptions {
	var o runOptions
	for _, fn := range opts {
		if fn != nil {
			fn(&o)
		}
	}
	return o
}

// WithShards executes a gossip or consensus run as s deterministic
// supersteps over contiguous id-range shards (see sim.Config.Shards).
// Output is bit-identical for every shard count; 0 and 1 select the serial
// kernel. Fuzz and lower-bound specs draw their own shard counts and
// ignore this option.
func WithShards(s int) Option {
	return func(o *runOptions) { o.shards = s }
}

// WithWorkers caps execution parallelism: the goroutines driving shard
// phases in a single sharded run, the concurrent runs of RunMany, and the
// workers of a FuzzSpec session (everywhere: 0 = GOMAXPROCS-derived
// default, 1 = serial). Results never depend on it.
func WithWorkers(w int) Option {
	return func(o *runOptions) { o.workers = w }
}

// WithTracer attaches an event tracer to a gossip or consensus run,
// composing with any tracer already present in the spec. Tracers are
// observation-only. Sharded runs invoke the tracer in exact serial event
// order, from one goroutine.
func WithTracer(t Tracer) Option {
	return func(o *runOptions) { o.tracer = t }
}

// WithTelemetry attaches a streaming TelemetryRecorder to a gossip or
// consensus run. The recorder's O(1)-per-event summaries are how large
// (sharded) runs are measured without materializing event logs.
func WithTelemetry(rec *TelemetryRecorder) Option {
	return func(o *runOptions) { o.telemetry = rec }
}

// WithLean runs in the reduced-memory regime for large n: protocol nodes
// keep O(1) per-process time bookkeeping instead of Θ(n) acquisition-time
// arrays (see ProtocolParams.Lean), and GossipResult.Rumors — the Θ(n²)
// per-process rumor listing — is left nil. Completion verdicts, counts and
// digests are unchanged.
func WithLean() Option {
	return func(o *runOptions) { o.lean = true }
}

// RunResult is the outcome of Run: exactly one field is non-nil, matching
// the spec kind that produced it.
type RunResult struct {
	// Gossip is set for GossipSpec runs.
	Gossip *GossipResult
	// Consensus is set for ConsensusSpec runs.
	Consensus *ConsensusResult
	// LowerBound is set for LowerBoundSpec runs.
	LowerBound *LowerBoundReport
	// Fuzz is set for FuzzSpec runs.
	Fuzz *FuzzSummary
}

// Run executes one specification and returns its typed result. It is the
// single entry point of the library; RunMany fans it across a batch.
//
// The context cancels what is cancellable: a FuzzSpec session observes it
// between scenarios, and an already-cancelled context aborts any run
// before it starts. A single simulation, once started, runs to completion
// — the kernel is a deterministic pure function of its spec.
func Run(ctx context.Context, spec Spec, opts ...Option) (*RunResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if _, fuzz := spec.(FuzzSpec); !fuzz {
		// A fuzz session observes the context itself (cancelled scenarios
		// are counted as skipped, not failed); everything else aborts
		// before starting.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	o := buildOptions(opts)
	switch s := spec.(type) {
	case GossipSpec:
		g, err := runGossipSpec(s, o)
		return &RunResult{Gossip: g}, err
	case ConsensusSpec:
		c, err := runConsensusSpec(s, o)
		return &RunResult{Consensus: c}, err
	case LowerBoundSpec:
		rep, err := runLowerBoundSpec(s)
		if err != nil {
			return nil, err
		}
		return &RunResult{LowerBound: &rep}, nil
	case FuzzSpec:
		sum, err := scenario.Fuzz(scenario.Options{
			Runs:         s.Runs,
			MasterSeed:   s.Seed,
			FirstIndex:   s.FirstIndex,
			Workers:      o.workers,
			ShrinkBudget: s.ShrinkBudget,
			Context:      ctx,
		})
		if err != nil {
			return nil, err
		}
		return &RunResult{Fuzz: sum}, nil
	default:
		return nil, fmt.Errorf("repro: unknown spec type %T", spec)
	}
}

// RunMany executes one run per spec, fanned across a worker pool sized by
// WithWorkers. results[i] and errs[i] correspond to specs[i] and are
// exactly what Run(ctx, specs[i], opts...) would have returned —
// simulations share no state, so parallel batches reproduce serial loops
// bit for bit. Runs that have not started when the context fires report
// the context's error.
//
// WithTracer and WithTelemetry attach one observer to every run and so
// require WithWorkers(1); concurrent batches reject them per item rather
// than race on the shared observer.
func RunMany[S Spec](ctx context.Context, specs []S, opts ...Option) (results []*RunResult, errs []error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := buildOptions(opts)
	if (o.tracer != nil || o.telemetry != nil) && o.workers != 1 {
		errs = make([]error, len(specs))
		results = make([]*RunResult, len(specs))
		for i := range errs {
			errs[i] = fmt.Errorf("repro: WithTracer/WithTelemetry share one observer across runs; RunMany requires WithWorkers(1) with them")
		}
		return results, errs
	}
	results, errs, _ = runner.Map(ctx, len(specs),
		runner.Options{Workers: o.workers},
		func(_ context.Context, i int) (*RunResult, error) {
			spec := Spec(specs[i])
			if g, ok := spec.(GossipSpec); ok {
				// A caller-provided snapshot pool is sequential-only (its
				// free lists are unsynchronized); concurrent runs must each
				// build their own, so strip it rather than race on it.
				g.Tuning.Pool = nil
				spec = g
			}
			return Run(ctx, spec, opts...)
		})
	return results, errs
}

// runGossipSpec is the gossip engine behind Run.
func runGossipSpec(spec GossipSpec, o runOptions) (*GossipResult, error) {
	cfg := GossipConfig(spec).withDefaults()
	proto, err := gossipProtoByName(cfg.Protocol)
	if err != nil {
		return nil, err
	}
	p := cfg.Tuning
	p.N, p.F = cfg.N, cfg.F
	if o.shards != 0 {
		p.Shards = o.shards
	}
	if o.lean {
		p.Lean = true
	}
	graph, err := buildTopology(cfg.Topology, cfg.N, cfg.TopologyParam, cfg.TopologyParam2, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if graph != nil {
		p.Graph = graph
	}
	nodes, err := core.NewNodes(proto, p, cfg.Seed)
	if err != nil {
		return nil, err
	}
	simCfg := sim.Config{
		N: cfg.N, F: cfg.F,
		D: sim.Time(cfg.D), Delta: sim.Time(cfg.Delta),
		Seed: cfg.Seed, MaxSteps: sim.Time(cfg.MaxSteps),
		Graph:        graph,
		Shards:       o.shards,
		ShardWorkers: o.workers,
	}
	adv, err := adversary.ByName(cfg.Adversary, simCfg)
	if err != nil {
		return nil, err
	}
	w, err := sim.NewWorld(simCfg, nodes, adv)
	if err != nil {
		return nil, err
	}
	var tl *trace.Timeline
	tracer := cfg.Tracer
	if cfg.Timeline {
		tl = trace.NewTimeline(cfg.N, 160)
		tracer = sim.Tee(tl, tracer)
	}
	if o.tracer != nil {
		tracer = sim.Tee(tracer, o.tracer)
	}
	if o.telemetry != nil {
		tracer = sim.Tee(tracer, o.telemetry)
	}
	if tracer != nil {
		w.SetTracer(tracer)
	}
	res, runErr := w.Run(proto.Evaluator(p.WithDefaults()))
	out := &GossipResult{
		Completed:       res.Completed,
		TimeSteps:       int64(res.TimeComplexity),
		Messages:        res.Messages,
		Bytes:           res.Bytes,
		BytesKnown:      res.BytesKnown,
		Crashes:         res.Crashes,
		OffEdgeDrops:    res.OffEdgeDrops,
		OutOfRangeDrops: res.OutOfRangeDrops,
	}
	if tl != nil {
		out.Timeline = tl.Render()
	}
	for q := 0; q < cfg.N; q++ {
		if !w.Alive(sim.ProcID(q)) {
			out.Crashed = append(out.Crashed, q)
		}
	}
	if !o.lean {
		// Materializing Rumors is Θ(n²); lean runs skip it so results of
		// very large sweeps stay O(n).
		for q := 0; q < cfg.N; q++ {
			if h, ok := nodes[q].(core.RumorHolder); ok {
				out.Rumors = append(out.Rumors, h.RumorSet().Elements())
			} else {
				out.Rumors = append(out.Rumors, nil)
			}
		}
	}
	if runErr != nil {
		return out, fmt.Errorf("repro: gossip run failed: %w", runErr)
	}
	return out, nil
}

// runConsensusSpec is the consensus engine behind Run.
func runConsensusSpec(spec ConsensusSpec, o runOptions) (*ConsensusResult, error) {
	cfg := ConsensusConfig(spec).withDefaults()
	p := consensus.Params{
		N: cfg.N, F: cfg.F,
		Transport: consensus.TransportKind(cfg.Transport),
		Gossip:    cfg.Tuning,
	}
	if o.lean {
		p.Gossip.Lean = true
	}
	graph, err := buildTopology(cfg.Topology, cfg.N, cfg.TopologyParam, cfg.TopologyParam2, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if graph != nil {
		p.Gossip.Graph = graph
	}
	if cfg.LocalCoin {
		p.Coin = consensus.NewLocalCoin(cfg.Seed)
	}
	inputs := cfg.Inputs
	if inputs == nil {
		inputs = consensus.RandomInputs(cfg.N, cfg.Seed)
	}
	nodes, err := consensus.NewNodes(p, inputs, cfg.Seed)
	if err != nil {
		return nil, err
	}
	simCfg := sim.Config{
		N: cfg.N, F: cfg.F,
		D: sim.Time(cfg.D), Delta: sim.Time(cfg.Delta),
		Seed: cfg.Seed, MaxSteps: sim.Time(cfg.MaxSteps),
		Graph:        graph,
		Shards:       o.shards,
		ShardWorkers: o.workers,
	}
	adv, err := adversary.ByName(cfg.Adversary, simCfg)
	if err != nil {
		return nil, err
	}
	w, err := sim.NewWorld(simCfg, nodes, adv)
	if err != nil {
		return nil, err
	}
	if tracer := teeTracers(o.tracer, o.telemetry); tracer != nil {
		w.SetTracer(tracer)
	}
	res, runErr := w.Run(consensus.Evaluator{Inputs: inputs})
	out := &ConsensusResult{
		Completed:    res.Completed,
		TimeSteps:    int64(res.CompletedAt),
		Messages:     res.Messages,
		Bytes:        res.Bytes,
		BytesKnown:   res.BytesKnown,
		Crashes:      res.Crashes,
		Inputs:       inputs,
		OffEdgeDrops: res.OffEdgeDrops,
	}
	for q := 0; q < cfg.N; q++ {
		cn := nodes[q].(*consensus.Node)
		if decided, v, _ := cn.Decided(); decided {
			out.Decision = v
		}
		if w.Alive(sim.ProcID(q)) && cn.Rounds() > out.MaxRounds {
			out.MaxRounds = cn.Rounds()
		}
	}
	if runErr != nil {
		return out, fmt.Errorf("repro: consensus run failed: %w", runErr)
	}
	return out, nil
}

// runLowerBoundSpec is the Theorem 1 engine behind Run.
func runLowerBoundSpec(spec LowerBoundSpec) (LowerBoundReport, error) {
	if spec.Protocol == "" {
		spec.Protocol = ProtoEARS
	}
	proto, err := core.ByName(spec.Protocol)
	if err != nil {
		return LowerBoundReport{}, err
	}
	return lowerbound.Run(proto, core.Params{}, lowerbound.Config{
		N: spec.N, F: spec.F, Seed: spec.Seed, Trials: spec.Trials,
	})
}

// teeTracers composes an optional tracer and telemetry recorder.
func teeTracers(t Tracer, rec *TelemetryRecorder) Tracer {
	if rec == nil {
		return t
	}
	if t == nil {
		return rec
	}
	return sim.Tee(t, rec)
}
