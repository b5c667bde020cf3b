package repro

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// TestWithShardsBitIdentical is the public-API face of the sharded kernel
// contract: gossip and consensus runs are event-for-event identical at
// every shard count, across protocol families, adversaries (including the
// crash-heavy preset) and topologies.
func TestWithShardsBitIdentical(t *testing.T) {
	ctx := context.Background()
	for _, spec := range []GossipSpec{
		{Protocol: ProtoEARS, N: 24, F: 5, D: 3, Delta: 2, Seed: 7},
		{Protocol: ProtoTEARS, N: 30, F: 3, D: 2, Delta: 2, Seed: 11, Adversary: AdversaryCrashStorm},
		{Protocol: ProtoSEARS, N: 20, F: 2, D: 2, Delta: 1, Seed: 3, Topology: TopoRing},
		{Protocol: ProtoSyncEpidemic, N: 16, F: 0, D: 1, Delta: 1, Seed: 5, Adversary: AdversaryBenign},
	} {
		refDig := sim.NewDigestTracer()
		ref, err := Run(ctx, spec, WithTracer(refDig))
		if err != nil {
			t.Fatalf("%s serial: %v", spec.Protocol, err)
		}
		for _, shards := range []int{1, 2, 3, 7, spec.N} {
			dig := sim.NewDigestTracer()
			got, err := Run(ctx, spec, WithTracer(dig), WithShards(shards))
			if err != nil {
				t.Fatalf("%s shards=%d: %v", spec.Protocol, shards, err)
			}
			if !reflect.DeepEqual(ref.Gossip, got.Gossip) {
				t.Fatalf("%s shards=%d: results diverged:\n serial %+v\n sharded %+v",
					spec.Protocol, shards, ref.Gossip, got.Gossip)
			}
			if dig.Sum() != refDig.Sum() || dig.Events() != refDig.Events() {
				t.Fatalf("%s shards=%d: digest diverged", spec.Protocol, shards)
			}
		}
	}

	ccfg := ConsensusSpec{Transport: TransportTEARS, N: 21, F: 4, D: 2, Delta: 2, Seed: 9}
	refDig := sim.NewDigestTracer()
	ref, err := Run(ctx, ccfg, WithTracer(refDig))
	if err != nil {
		t.Fatalf("consensus serial: %v", err)
	}
	for _, shards := range []int{2, 5, 21} {
		dig := sim.NewDigestTracer()
		got, err := Run(ctx, ccfg, WithTracer(dig), WithShards(shards))
		if err != nil {
			t.Fatalf("consensus shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(ref.Consensus, got.Consensus) {
			t.Fatalf("consensus shards=%d: results diverged", shards)
		}
		if dig.Sum() != refDig.Sum() || dig.Events() != refDig.Events() {
			t.Fatalf("consensus shards=%d: digest diverged", shards)
		}
	}
}

// TestWithLeanTrimsOnlyMaterialization: lean runs drop the Θ(n²) Rumors
// listing but change nothing the run computed.
func TestWithLeanTrimsOnlyMaterialization(t *testing.T) {
	ctx := context.Background()
	spec := GossipSpec{Protocol: ProtoTEARS, N: 40, F: 4, D: 2, Delta: 2, Seed: 13}
	full, err := Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	lean, err := Run(ctx, spec, WithLean(), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if lean.Gossip.Rumors != nil {
		t.Fatal("lean run materialized Rumors")
	}
	trimmed := *full.Gossip
	trimmed.Rumors = nil
	if !reflect.DeepEqual(&trimmed, lean.Gossip) {
		t.Fatalf("lean run diverged beyond Rumors:\n full %+v\n lean %+v", &trimmed, lean.Gossip)
	}
}

// TestRunManyRejectsSharedObserver: a concurrent batch must not race on a
// shared tracer/telemetry observer.
func TestRunManyRejectsSharedObserver(t *testing.T) {
	specs := []GossipSpec{{Protocol: ProtoEARS, N: 8, D: 1, Delta: 1, Seed: 1}}
	_, errs := RunMany(context.Background(), specs, WithTracer(sim.NewDigestTracer()))
	if errs[0] == nil {
		t.Fatal("concurrent RunMany accepted a shared tracer")
	}
	rec := NewTelemetryRecorder(8)
	res, errs := RunMany(context.Background(), specs, WithTelemetry(rec), WithWorkers(1))
	if errs[0] != nil {
		t.Fatalf("serial RunMany rejected telemetry: %v", errs[0])
	}
	if res[0].Gossip == nil {
		t.Fatal("missing result")
	}
	if rec.Snapshot().Sends == 0 {
		t.Fatal("telemetry recorder observed nothing")
	}
}

// TestRunCancelledContext: non-fuzz runs abort on an already-cancelled
// context before any work starts.
func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, GossipSpec{Protocol: ProtoEARS, N: 8, D: 1, Delta: 1}); err == nil {
		t.Fatal("cancelled context accepted")
	}
}
