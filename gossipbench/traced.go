package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/adversary"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topology"
)

// spans accumulates the traced run's per-layer times (ns) and counts. The
// spans are recorded only in this file, around the public calls into each
// layer; nothing inside the program is instrumented.
type spans struct {
	// Simulated gossip.
	setup, step, evaluate, schedule, run int64
	delayCalls                           int64
	steps, msgs, deliveries, bytes       int64
	// Fuzzer.
	gen, exec, oracle int64
	oracles           map[string]int64
	twinRuns          int64
	// Cluster.
	bringup, quiesce, quiesceToDone int64
	clSteps, usefulSteps, sendFails int64
	// Wire codec, sampled on cluster-ears only.
	codecMsgs, encodeNs, decodeNs, frameBytes int64
}

func newSpans() *spans { return &spans{oracles: map[string]int64{}} }

// codecPerOp is roughly how many outbox messages per op the cluster
// wrapper captures for the codec sample: each node keeps its first
// codecPerOp/n + 1.
const codecPerOp = 64

// timedNode wraps a protocol node to time its Step.
type timedNode struct {
	inner sim.Node
	sp    *spans
}

func (n *timedNode) ID() sim.ProcID  { return n.inner.ID() }
func (n *timedNode) Quiescent() bool { return n.inner.Quiescent() }
func (n *timedNode) Step(now sim.Time, inbox []sim.Message, out *sim.Outbox) {
	t := time.Now()
	n.inner.Step(now, inbox, out)
	n.sp.step += time.Since(t).Nanoseconds()
}

// timedAdversary times Schedule and Crashes and counts Delay calls.
type timedAdversary struct {
	inner *adversary.Composed
	sp    *spans
}

func (a *timedAdversary) Schedule(t sim.Time, v sim.View, buf []sim.ProcID) []sim.ProcID {
	t0 := time.Now()
	buf = a.inner.Schedule(t, v, buf)
	a.sp.schedule += time.Since(t0).Nanoseconds()
	return buf
}

func (a *timedAdversary) Crashes(t sim.Time, v sim.View, buf []sim.ProcID) []sim.ProcID {
	t0 := time.Now()
	buf = a.inner.Crashes(t, v, buf)
	a.sp.schedule += time.Since(t0).Nanoseconds()
	return buf
}

func (a *timedAdversary) Delay(t sim.Time, from, to sim.ProcID) sim.Time {
	a.sp.delayCalls++
	return a.inner.Delay(t, from, to)
}

// ObserveSend forwards to the composed adversary, which the world would
// otherwise reach directly.
func (a *timedAdversary) ObserveSend(m sim.Message) { a.inner.ObserveSend(m) }

// innerView hands evaluators the unwrapped nodes: they read protocol state
// through type assertions the wrapper would hide.
type innerView struct {
	sim.View
	nodes []sim.Node
}

func (v innerView) Node(p sim.ProcID) sim.Node { return v.nodes[p] }

type timedEvaluator struct {
	inner sim.Evaluator
	nodes []sim.Node
	sp    *spans
}

func (e *timedEvaluator) Evaluate(v sim.View) sim.Outcome {
	t := time.Now()
	out := e.inner.Evaluate(innerView{View: v, nodes: e.nodes})
	e.sp.evaluate += time.Since(t).Nanoseconds()
	return out
}

// tracedGossip rebuilds the op exactly as repro.Run assembles it — graph,
// nodes, adversary, world — with the nodes, adversary and evaluator
// wrapped, and reports the same counts for the gate to compare.
func tracedGossip(g gossipOp, sp *spans) opOut {
	t0 := time.Now()
	spec := g.spec
	proto, err := core.ByName(spec.Protocol)
	if err != nil {
		return opOut{err: err}
	}
	p := core.Params{N: spec.N, F: spec.F, Lean: g.lean}
	var graph topology.Graph
	if spec.Topology != "" {
		graph, err = topology.Build(topology.Spec{
			Family: spec.Topology, N: spec.N,
			Param: spec.TopologyParam, Param2: spec.TopologyParam2, Seed: spec.Seed,
		})
		if err != nil {
			return opOut{err: err}
		}
		p.Graph = graph
	}
	nodes, err := core.NewNodes(proto, p, spec.Seed)
	if err != nil {
		return opOut{err: err}
	}
	cfg := sim.Config{
		N: spec.N, F: spec.F,
		D: sim.Time(spec.D), Delta: sim.Time(spec.Delta),
		Seed: spec.Seed, MaxSteps: sim.Time(spec.MaxSteps),
		Graph: graph,
	}
	adv, err := adversary.ByName(spec.Adversary, cfg)
	if err != nil {
		return opOut{err: err}
	}
	wrapped := make([]sim.Node, len(nodes))
	for i, nd := range nodes {
		wrapped[i] = &timedNode{inner: nd, sp: sp}
	}
	w, err := sim.NewWorld(cfg, wrapped, &timedAdversary{inner: adv, sp: sp})
	if err != nil {
		return opOut{err: err}
	}
	t1 := time.Now()
	sp.setup += t1.Sub(t0).Nanoseconds()
	res, runErr := w.Run(&timedEvaluator{inner: proto.Evaluator(p.WithDefaults()), nodes: nodes, sp: sp})
	sp.run += time.Since(t1).Nanoseconds()

	m := w.Metrics()
	sp.steps += m.TotalSteps()
	sp.msgs += res.Messages
	sp.bytes += res.Bytes
	for _, d := range m.DeliveredTo {
		sp.deliveries += d
	}
	if runErr != nil {
		return opOut{err: runErr}
	}
	out := opOut{counts: counts{int64(res.TimeComplexity), res.Messages, res.Bytes}, msgs: res.Messages}
	out.err = gossipGate(res.Completed, res.OffEdgeDrops, res.OutOfRangeDrops)
	return out
}

// fuzzTap observes the scenario's primary run and counts the kernel's work.
type fuzzTap struct{ sp *spans }

func (f *fuzzTap) OnStep(sim.ProcID, sim.Time)  { f.sp.steps++ }
func (f *fuzzTap) OnCrash(sim.ProcID, sim.Time) {}
func (f *fuzzTap) OnDeliver(sim.Message, sim.Time) {
	f.sp.deliveries++
}
func (f *fuzzTap) OnSend(m sim.Message) {
	f.sp.msgs++
	if s, ok := m.Payload.(sim.Sizer); ok {
		f.sp.bytes += int64(s.SizeBytes())
	}
}

// tracedFuzz runs one scenario the way the fuzzer does — generate,
// execute with its twins, judge with every catalog oracle — timing each.
func tracedFuzz(master, index int64, sp *spans) opOut {
	t0 := time.Now()
	spec := scenario.Generate(master, index)
	t1 := time.Now()
	sp.gen += t1.Sub(t0).Nanoseconds()
	tap := &fuzzTap{sp: sp}
	ex, err := scenario.ExecuteTraced(spec, tap)
	t2 := time.Now()
	sp.exec += t2.Sub(t1).Nanoseconds()
	if err != nil {
		return opOut{err: err}
	}
	out := opOut{counts: counts{Msgs: ex.Res.Messages}, msgs: ex.Res.Messages}
	for _, o := range scenario.Catalog() {
		t := time.Now()
		detail := o.Check(ex)
		sp.oracles[o.Name] += time.Since(t).Nanoseconds()
		if detail != "" && out.err == nil {
			out.err = fmt.Errorf("scenario %d: oracle %s violated: %s", index, o.Name, detail)
		}
	}
	sp.oracle += time.Since(t2).Nanoseconds()
	if ex.TwinRan {
		sp.twinRuns++
	}
	if ex.ShardTwinRan {
		sp.twinRuns++
	}
	return out
}

// clusterNode wraps an EARS node for the cluster's Launch hook: it times
// Step, records the first step's wall time and captures outbox messages
// for the codec sample. The node's goroutine writes the fields and the
// op's goroutine reads them after the run, so they are atomic (captured
// is published through capturedN). The embedded RumorHolder forwards the
// state the node's final report reads.
type clusterNode struct {
	inner sim.Node
	core.RumorHolder
	firstStep     atomic.Int64 // unix ns of the first Step
	stepNs, steps atomic.Int64
	useful        atomic.Int64
	captured      []sim.Message
	capturedN     atomic.Int32
	capturedCap   int
}

func (n *clusterNode) ID() sim.ProcID  { return n.inner.ID() }
func (n *clusterNode) Quiescent() bool { return n.inner.Quiescent() }
func (n *clusterNode) Step(now sim.Time, inbox []sim.Message, out *sim.Outbox) {
	t := time.Now()
	n.firstStep.CompareAndSwap(0, t.UnixNano())
	n.inner.Step(now, inbox, out)
	n.stepNs.Add(time.Since(t).Nanoseconds())
	n.steps.Add(1)
	ms := out.Messages()
	if len(inbox) > 0 || len(ms) > 0 {
		n.useful.Add(1)
	}
	// Cluster payloads are unpooled, so captured messages stay valid.
	for _, m := range ms {
		if len(n.captured) >= n.capturedCap {
			break
		}
		n.captured = append(n.captured, m)
	}
	n.capturedN.Store(int32(len(n.captured)))
}

// tracedCluster runs the op through cluster.Run with a Launch hook that
// wraps each node, then splits the run's wall time into bring-up,
// quiescence detection and shutdown, and times the codec on captured
// messages.
func tracedCluster(spec scenario.Spec, sp *spans) opOut {
	graph, err := spec.BuildGraph()
	if err != nil {
		return opOut{err: err}
	}
	proto, err := scenario.ProtocolByName(spec.Protocol)
	if err != nil {
		return opOut{err: err}
	}
	nodes, err := core.NewNodes(proto, core.Params{N: spec.N, F: spec.F, Graph: graph, NoPool: true}, spec.Seed)
	if err != nil {
		return opOut{err: err}
	}
	wrapped := make([]*clusterNode, len(nodes))
	for i, nd := range nodes {
		rh, ok := nd.(core.RumorHolder)
		if !ok {
			return opOut{err: fmt.Errorf("cluster node %d holds no rumor set", i)}
		}
		wrapped[i] = &clusterNode{inner: nd, RumorHolder: rh, capturedCap: codecPerOp/len(nodes) + 1}
	}
	launch := func(cfg cluster.NodeConfig, errs chan<- error) {
		nd := wrapped[cfg.ID]
		go func() {
			if _, err := cluster.RunNode(cfg, nd); err != nil {
				errs <- err
			}
		}()
	}
	start := time.Now()
	res, err := cluster.Run(context.Background(), spec, cluster.Options{Launch: launch})
	out := clusterOut(res, err)
	if err != nil {
		return out
	}
	last := int64(0)
	var buf []byte
	for _, nd := range wrapped {
		if f := nd.firstStep.Load(); f > last {
			last = f
		}
		sp.step += nd.stepNs.Load()
		sp.clSteps += nd.steps.Load()
		sp.usefulSteps += nd.useful.Load()
		for _, m := range nd.captured[:nd.capturedN.Load()] {
			buf = sampleCodec(buf, m, sp)
		}
	}
	if last > 0 {
		sp.bringup += last - start.UnixNano()
	}
	sp.quiesce += res.QuiesceWall.Nanoseconds()
	sp.quiesceToDone += (res.Wall - res.QuiesceWall).Nanoseconds()
	sp.sendFails += res.TotalSendFails
	return out
}

// sampleCodec encodes one captured message into buf as a cluster gossip
// envelope and decodes it back, timing both halves, and returns the buffer
// for reuse. It runs after cluster.Run has returned, so the sample counts
// as tracing overhead (well under 1 ms per op at n=8), not as cluster work.
func sampleCodec(buf []byte, m sim.Message, sp *spans) []byte {
	t0 := time.Now()
	body, err := cluster.AppendGossip(buf[:0], m)
	if err != nil {
		return buf
	}
	t1 := time.Now()
	if _, err := cluster.DecodeGossip(body); err != nil {
		return body
	}
	t2 := time.Now()
	sp.codecMsgs++
	sp.encodeNs += t1.Sub(t0).Nanoseconds()
	sp.decodeNs += t2.Sub(t1).Nanoseconds()
	sp.frameBytes += int64(len(body))
	return body
}
