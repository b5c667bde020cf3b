package repro

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/lowerbound"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/syncgossip"
	"repro/internal/topology"
)

// Aliases into the model layer, for users extending the library with
// custom protocols, adversaries or tracers.
type (
	// Time is a discrete simulation step.
	Time = sim.Time
	// ProcID identifies a process (0..N-1).
	ProcID = sim.ProcID
	// Node is a protocol state machine (implement to add protocols).
	Node = sim.Node
	// Outbox collects a node's sends during a step.
	Outbox = sim.Outbox
	// Message is a point-to-point message.
	Message = sim.Message
	// Adversary controls scheduling, delays and crashes.
	Adversary = sim.Adversary
	// Tracer observes simulation events.
	Tracer = sim.Tracer
	// Protocol is a gossip protocol family (node factory + evaluator).
	Protocol = core.Protocol
	// ProtocolParams carries protocol tuning knobs.
	ProtocolParams = core.Params
	// LowerBoundReport is the outcome of the Theorem 1 adversary.
	LowerBoundReport = lowerbound.Report
	// Graph is a communication topology (implement or build via the
	// topology Spec to run protocols on custom graphs).
	Graph = topology.Graph
	// TopologySpec describes a graph for topology-aware runs.
	TopologySpec = topology.Spec
)

// Gossip protocol names accepted by GossipConfig.Protocol.
const (
	ProtoTrivial           = core.NameTrivial
	ProtoEARS              = core.NameEARS
	ProtoSEARS             = core.NameSEARS
	ProtoTEARS             = core.NameTEARS
	ProtoSyncEpidemic      = syncgossip.NameSyncEpidemic
	ProtoSyncDeterministic = syncgossip.NameSyncDeterministic
	// Single-rumor spreading (Panagiotou–Speidel) and sum-weight
	// averaging (Picard et al.): the O(1)-state related-work families.
	ProtoPush     = core.NamePush
	ProtoPull     = core.NamePull
	ProtoPushPull = core.NamePushPull
	ProtoAverage  = core.NameAverage
)

// Adversary preset names accepted by the Adversary fields.
const (
	AdversaryBenign     = adversary.PresetBenign
	AdversaryStandard   = adversary.PresetStandard
	AdversaryCrashStorm = adversary.PresetCrashStorm
	AdversaryMaxDelay   = adversary.PresetMaxDelay
	AdversaryStaggered  = adversary.PresetStaggered
	AdversaryPartition  = adversary.PresetPartition
)

// Consensus transport names accepted by ConsensusConfig.Transport.
const (
	TransportDirect = string(consensus.TransportDirect)
	TransportEARS   = string(consensus.TransportEARS)
	TransportSEARS  = string(consensus.TransportSEARS)
	TransportTEARS  = string(consensus.TransportTEARS)
)

// Topology family names accepted by the Topology fields. The empty string
// (and TopoComplete) select the paper's complete graph, which reproduces
// pre-topology results exactly for a fixed seed.
const (
	TopoComplete       = topology.FamilyComplete
	TopoRing           = topology.FamilyRing
	TopoTorus          = topology.FamilyTorus
	TopoRandomRegular  = topology.FamilyRandomRegular
	TopoErdosRenyi     = topology.FamilyErdosRenyi
	TopoWattsStrogatz  = topology.FamilyWattsStrogatz
	TopoBarabasiAlbert = topology.FamilyBarabasiAlbert
)

// Topologies lists the topology family names.
func Topologies() []string { return topology.Families() }

// buildTopology resolves the Topology fields of a config into a graph
// (nil for the default complete graph, preserving legacy semantics and
// random streams exactly).
func buildTopology(family string, n int, param, param2 float64, seed int64) (topology.Graph, error) {
	if family == "" {
		return nil, nil
	}
	return topology.Build(topology.Spec{
		Family: family, N: n, Param: param, Param2: param2, Seed: seed,
	})
}

// GossipConfig configures a gossip run (see GossipSpec). Zero values
// default to: EARS, the standard oblivious adversary, d = δ = 1, no
// failures.
type GossipConfig struct {
	// Protocol is one of the Proto* constants.
	Protocol string
	// N is the number of processes (required).
	N int
	// F is the number of crash failures the adversary may inject.
	F int
	// D and Delta are the execution's delay and speed bounds (≥ 1); the
	// asynchronous protocols do not know them.
	D, Delta int
	// Adversary is one of the Adversary* presets.
	Adversary string
	// Seed makes the run reproducible.
	Seed int64
	// Tuning overrides protocol constants (optional).
	Tuning ProtocolParams
	// MaxSteps caps the run (0 = generous default).
	MaxSteps int64
	// Timeline, when true, records an ASCII space–time diagram of the run
	// in the result (intended for small N; the drawing is clipped at 160
	// time steps).
	Timeline bool
	// Tracer, when non-nil, observes every simulation event (composes with
	// Timeline). Attach a telemetry.Recorder or exporter here; tracers are
	// observation-only and never change the run's outcome.
	Tracer Tracer
	// Topology is one of the Topo* constants; empty means the paper's
	// complete graph (identical results to pre-topology runs for a fixed
	// seed). Protocols sample targets from their neighborhoods and the
	// simulator drops (and counts) any send along a non-edge.
	Topology string
	// TopologyParam and TopologyParam2 are the family parameters (see
	// TopologySpec): degree for random-regular, edge probability for
	// erdos-renyi, k and β for watts-strogatz, m for barabasi-albert,
	// rows for torus. Zero selects the documented defaults.
	TopologyParam  float64
	TopologyParam2 float64
}

func (c GossipConfig) withDefaults() GossipConfig {
	if c.Protocol == "" {
		c.Protocol = ProtoEARS
	}
	if c.Adversary == "" {
		c.Adversary = AdversaryStandard
	}
	if c.D == 0 {
		c.D = 1
	}
	if c.Delta == 0 {
		c.Delta = 1
	}
	return c
}

// GossipResult reports a gossip run.
type GossipResult struct {
	// Completed: the protocol achieved its promise (full or majority
	// gossip) and went quiescent.
	Completed bool
	// TimeSteps is the paper's time complexity: the step by which every
	// correct process had gathered what it must and all sending stopped.
	TimeSteps int64
	// Messages is the total number of point-to-point messages.
	Messages int64
	// Bytes approximates total payload bytes (bit-complexity extension).
	Bytes int64
	// BytesKnown reports that every message carried a size-reporting
	// payload, i.e. Bytes is a measurement, not "unreported".
	BytesKnown bool
	// Crashes is the number of processes the adversary crashed.
	Crashes int
	// Crashed lists the crashed process IDs.
	Crashed []int
	// Rumors[p] lists the rumor origins known to process p at the end.
	Rumors [][]int
	// Timeline is the rendered space–time diagram (GossipConfig.Timeline).
	Timeline string
	// OffEdgeDrops counts sends dropped for lack of a topology edge
	// (always 0 on the complete graph).
	OffEdgeDrops int64
	// OutOfRangeDrops counts sends dropped for an out-of-range target id
	// (nonzero flags a protocol addressing processes that do not exist).
	OutOfRangeDrops int64
}

func gossipProtoByName(name string) (core.Protocol, error) {
	if p, err := core.ByName(name); err == nil {
		return p, nil
	}
	if p, err := syncgossip.ByName(name); err == nil {
		return p, nil
	}
	return nil, fmt.Errorf("repro: unknown gossip protocol %q", name)
}

// ConsensusConfig configures a consensus run (see ConsensusSpec). Zero
// values default to: the tears transport, standard adversary, d = δ = 1,
// random inputs.
type ConsensusConfig struct {
	// Transport is one of the Transport* constants.
	Transport string
	// N is the number of processes; F < N/2 the failure budget.
	N, F int
	// D, Delta as in GossipConfig.
	D, Delta int
	// Adversary is one of the Adversary* presets.
	Adversary string
	// Seed makes the run reproducible.
	Seed int64
	// Inputs are the binary proposals (nil = seeded random).
	Inputs []uint8
	// LocalCoin swaps the common coin for Ben-Or local coins (ablation).
	LocalCoin bool
	// Tuning overrides gossip-transport constants (optional).
	Tuning ProtocolParams
	// MaxSteps caps the run (0 = generous default).
	MaxSteps int64
	// Topology restricts communication to a graph family, as in
	// GossipConfig. The gossip transports (ears/sears/tears) sample
	// within neighborhoods; the direct transport assumes the complete
	// graph and will not reach consensus on sparse topologies.
	Topology string
	// TopologyParam and TopologyParam2 are the family parameters.
	TopologyParam  float64
	TopologyParam2 float64
}

func (c ConsensusConfig) withDefaults() ConsensusConfig {
	if c.Transport == "" {
		c.Transport = TransportTEARS
	}
	if c.Adversary == "" {
		c.Adversary = AdversaryStandard
	}
	if c.D == 0 {
		c.D = 1
	}
	if c.Delta == 0 {
		c.Delta = 1
	}
	return c
}

// ConsensusResult reports a consensus run.
type ConsensusResult struct {
	// Completed: every correct process decided, decisions agree and are
	// valid.
	Completed bool
	// Decision is the agreed value.
	Decision uint8
	// TimeSteps is the step at which the last correct process decided.
	TimeSteps int64
	// Messages is the total number of point-to-point messages.
	Messages int64
	// Bytes approximates total payload bytes.
	Bytes int64
	// BytesKnown reports that every message carried a size-reporting
	// payload (see GossipResult.BytesKnown).
	BytesKnown bool
	// Crashes is the number of crashed processes.
	Crashes int
	// MaxRounds is the largest voting-round count over correct processes.
	MaxRounds int
	// Inputs echoes the proposals used.
	Inputs []uint8
	// OffEdgeDrops counts sends dropped for lack of a topology edge —
	// the diagnostic for running the direct transport on a sparse graph.
	OffEdgeDrops int64
}

// LowerBoundConfig configures a Theorem 1 run (see LowerBoundSpec).
type LowerBoundConfig struct {
	// Protocol is one of the asynchronous Proto* constants.
	Protocol string
	// N is the number of processes; F the failure budget (capped at N/4
	// by the Theorem 1 strategy).
	N, F int
	// Seed makes the run reproducible.
	Seed int64
	// Trials sets the adversary's Monte Carlo precision (default 32).
	Trials int
}

// Scenario-fuzzing aliases: the deterministic simulation-fuzzing engine
// behind cmd/fuzz, exposed for embedding (see doc.go and internal/scenario).
type (
	// ScenarioSpec is one fully materialized fuzzing scenario: protocol,
	// system parameters, topology, and the adversary's schedule/delay/crash
	// policies, all serializable — executing a spec is a pure function of
	// its fields.
	ScenarioSpec = scenario.Spec
	// ScenarioReport is the replayable artifact emitted for a violated
	// scenario: coordinates, oracle verdicts, the failing spec and its
	// shrunk minimized repro.
	ScenarioReport = scenario.Report
	// FuzzSummary aggregates one fuzzing session deterministically.
	FuzzSummary = scenario.Summary
)

// GenerateScenario derives the index-th scenario of a master seed's
// stream — the same pure function a FuzzSpec session iterates, exposed so callers
// can inspect or re-execute individual scenarios.
func GenerateScenario(seed, index int64) ScenarioSpec {
	return scenario.Generate(seed, index)
}

// DeriveSeed maps (base, label, cell) onto a well-mixed 64-bit seed —
// the harness's seed policy for sweeps: distinct labels (spec names,
// benchmark ids) get independent deterministic streams even when they
// share loop indices.
func DeriveSeed(base int64, label string, cell int64) int64 {
	return runner.DeriveSeed(base, label, cell)
}

// NewRand exposes the library's deterministic RNG for examples that need
// reproducible workload generation alongside the simulator.
func NewRand(seed int64) *rng.RNG { return rng.New(seed) }
