package main

import (
	"context"
	"fmt"

	"repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/topology"
)

// counts are an op's exact, deterministic work: the paper's time
// complexity, messages and payload bytes. A correct op repeats them bit
// for bit on every run of the same seed.
type counts struct {
	Time, Msgs, Bytes int64
}

// opOut is what one op reports back to the harness.
type opOut struct {
	counts counts
	msgs   int64   // messages the op moved (msgs_per_s)
	lat    []int64 // delivery latencies in ns (cluster only)
	err    error   // a failed op: counted, never dropped
}

// opList is a workload's fixed list of ops, built from the workload seed.
// run executes op i through the library's public entry point; traced
// executes the same op rebuilt from the layers' public calls, with spans.
type opList struct {
	n      int
	run    func(i int) opOut
	traced func(i int, sp *spans) opOut
	// excluded lists inputs the workload left out of the list, for the
	// detail block (fuzz-mix's known-defect scenarios).
	excluded []int64
}

// workload is one closed-loop workload: one client issuing the next op
// when the previous one returns.
type workload struct {
	name string
	// calibrated: the op is CPU-bound, so its wall times are scaled by the
	// host-drift reference (see calib.go). Pacing-bound ops are not.
	calibrated bool
	// exact: per-op counts are deterministic and gated bit for bit.
	exact bool
	// calEvery is how many ops run between reference probes. Uncalibrated
	// workloads probe too, so host.ref_ms shows the host's state.
	calEvery int
	build    func(seed int64, short bool) (*opList, error)
}

// workloads are the benchmark's workloads; README.md says why each was
// chosen and BENCHMARK.json repeats it.
var workloads = []*workload{
	{
		name:       "sim-sears",
		calibrated: true, exact: true, calEvery: 1,
		build: buildSimSEARS,
	},
	{
		name:       "sim-pushpull",
		calibrated: true, exact: true, calEvery: 1,
		build: buildSimPushPull,
	},
	{
		name:       "fuzz-mix",
		calibrated: true, exact: true, calEvery: 16,
		build: buildFuzzMix,
	},
	{
		name:       "cluster-ears",
		calibrated: false, exact: false, calEvery: 1,
		build: buildClusterEARS,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// gossipOp describes one simulated gossip op.
type gossipOp struct {
	spec repro.GossipSpec
	lean bool
}

func (g gossipOp) run() opOut {
	opts := []repro.Option{repro.WithWorkers(1)}
	if g.lean {
		opts = append(opts, repro.WithLean())
	}
	r, err := repro.Run(context.Background(), g.spec, opts...)
	if err != nil {
		return opOut{err: err}
	}
	res := r.Gossip
	out := opOut{counts: counts{res.TimeSteps, res.Messages, res.Bytes}, msgs: res.Messages}
	out.err = gossipGate(res.Completed, res.OffEdgeDrops, res.OutOfRangeDrops)
	return out
}

// gossipGate is the sim ops' correctness rule: the run completes its
// promise with no off-edge or out-of-range drops.
func gossipGate(completed bool, offEdge, outOfRange int64) error {
	switch {
	case !completed:
		return fmt.Errorf("run did not complete")
	case offEdge != 0:
		return fmt.Errorf("%d off-edge drops", offEdge)
	case outOfRange != 0:
		return fmt.Errorf("%d out-of-range drops", outOfRange)
	}
	return nil
}

func gossipList(name string, seed int64, n int, spec func(s int64) gossipOp) *opList {
	ops := make([]gossipOp, n)
	for i := range ops {
		ops[i] = spec(repro.DeriveSeed(seed, name, int64(i)))
	}
	return &opList{
		n:      n,
		run:    func(i int) opOut { return ops[i].run() },
		traced: func(i int, sp *spans) opOut { return tracedGossip(ops[i], sp) },
	}
}

func buildSimSEARS(seed int64, short bool) (*opList, error) {
	n, f, k := 192, 48, 16
	if short {
		n, f, k = 32, 8, 2
	}
	return gossipList("sim-sears", seed, k, func(s int64) gossipOp {
		return gossipOp{spec: repro.GossipSpec{
			Protocol: repro.ProtoSEARS, N: n, F: f, D: 1, Delta: 1,
			Adversary: repro.AdversaryStandard, Seed: s,
		}}
	}), nil
}

func buildSimPushPull(seed int64, short bool) (*opList, error) {
	n, k := 4096, 8
	if short {
		n, k = 256, 2
	}
	return gossipList("sim-pushpull", seed, k, func(s int64) gossipOp {
		return gossipOp{spec: repro.GossipSpec{
			Protocol: repro.ProtoPushPull, N: n, D: 1, Delta: 1,
			Adversary: repro.AdversaryStandard, Seed: s,
			Topology: repro.TopoErdosRenyi,
		}, lean: true}
	}), nil
}

// knownDefect reports the scenarios of a known program defect, which
// fuzz-mix leaves out of its list: the generator promises completion for
// push on Erdős–Rényi graphs, but push informs every process only with high
// probability, so about one such scenario in a thousand leaves a correct
// process uninformed and fails the completion oracle. A failing op measures
// the shrinker, not the fuzzer's normal path. README.md ("Known defect")
// gives reproducers, and TestKnownDefectStillFails keeps one pinned, so the
// exclusion goes once the defect is fixed.
func knownDefect(s scenario.Spec) bool {
	return s.Protocol == core.NamePush && s.Topology == topology.FamilyErdosRenyi
}

// fuzzIndices returns the first k scenario indices of master's stream that
// are not knownDefect, and the indices it passed over.
func fuzzIndices(master int64, k int) (keep, excluded []int64) {
	keep = make([]int64, 0, k)
	for idx := int64(0); len(keep) < k; idx++ {
		if knownDefect(scenario.Generate(master, idx)) {
			excluded = append(excluded, idx)
			continue
		}
		keep = append(keep, idx)
	}
	return keep, excluded
}

func buildFuzzMix(seed int64, short bool) (*opList, error) {
	k := 1024
	if short {
		k = 8
	}
	master := repro.DeriveSeed(seed, "fuzz-mix", 0)
	idx, excluded := fuzzIndices(master, k)
	return &opList{
		n: k,
		run: func(i int) opOut {
			r, err := repro.Run(context.Background(),
				repro.FuzzSpec{Runs: 1, Seed: master, FirstIndex: idx[i]}, repro.WithWorkers(1))
			if err != nil {
				return opOut{err: err}
			}
			sum := r.Fuzz
			out := opOut{counts: counts{Msgs: sum.Messages}, msgs: sum.Messages}
			switch {
			case len(sum.Reports) != 0:
				out.err = fmt.Errorf("scenario %d: oracle %s violated", idx[i], sum.Reports[0].Violations[0].Oracle)
			case sum.Skipped != 0:
				out.err = fmt.Errorf("scenario %d skipped", idx[i])
			}
			return out
		},
		traced:   func(i int, sp *spans) opOut { return tracedFuzz(master, idx[i], sp) },
		excluded: excluded,
	}, nil
}

// clusterSpec is the cluster-ears op for one seed: EARS on the clique,
// every process stepping every step, unit delays, no crashes.
func clusterSpec(n int, seed int64) scenario.Spec {
	return scenario.Spec{
		Protocol: "ears", N: n, D: 1, Delta: 1, Seed: seed,
		Schedule:       scenario.ScheduleSpec{Kind: scenario.SchedEvery},
		Delay:          scenario.DelaySpec{Kind: scenario.DelayFixed, Value: 1},
		ExpectComplete: true,
	}
}

func buildClusterEARS(seed int64, short bool) (*opList, error) {
	n, k := 8, 16
	if short {
		n, k = 4, 1
	}
	specs := make([]scenario.Spec, k)
	for i := range specs {
		specs[i] = clusterSpec(n, repro.DeriveSeed(seed, "cluster-ears", int64(i)))
		if err := specs[i].Validate(); err != nil {
			return nil, err
		}
	}
	return &opList{
		n: k,
		run: func(i int) opOut {
			res, err := cluster.Run(context.Background(), specs[i], cluster.Options{})
			return clusterOut(res, err)
		},
		traced: func(i int, sp *spans) opOut { return tracedCluster(specs[i], sp) },
	}, nil
}

// clusterOut applies the cluster gate — every live verdict passes, no
// timeout, no send failure — and collects delivery latencies.
func clusterOut(res *cluster.Result, err error) opOut {
	if err != nil {
		return opOut{err: err}
	}
	out := opOut{msgs: res.TotalSent}
	for _, e := range res.Trace {
		if e.Kind == cluster.EventDeliver && e.T >= e.SentAt {
			out.lat = append(out.lat, e.T-e.SentAt)
		}
	}
	switch {
	case res.TimedOut:
		out.err = fmt.Errorf("cluster run timed out")
	case res.TotalSendFails != 0:
		out.err = fmt.Errorf("%d send failures", res.TotalSendFails)
	case !res.Passed:
		for _, v := range res.Verdicts {
			if !v.OK {
				out.err = fmt.Errorf("live oracle %s failed: %s", v.Oracle, v.Detail)
				break
			}
		}
	}
	return out
}

// oracleNames lists the fuzzer's oracle catalog in catalog order.
func oracleNames() []string {
	var names []string
	for _, o := range scenario.Catalog() {
		names = append(names, o.Name)
	}
	return names
}
