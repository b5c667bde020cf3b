package repro

import (
	"context"
	"reflect"
	"testing"
)

// TestRunGossipDeterministic: the same GossipConfig (same Seed) yields an
// identical GossipResult across invocations — guarding the RNG plumbing
// (node streams, adversary streams, topology generation) against
// accidental nondeterminism such as map-iteration ordering.
func TestRunGossipDeterministic(t *testing.T) {
	configs := []GossipConfig{
		{Protocol: ProtoEARS, N: 48, F: 12, D: 2, Delta: 2, Seed: 11},
		{Protocol: ProtoSEARS, N: 48, F: 12, Seed: 11},
		{Protocol: ProtoTEARS, N: 64, F: 16, Seed: 11},
		{Protocol: ProtoEARS, N: 48, Seed: 11, Topology: TopoErdosRenyi},
		{Protocol: ProtoEARS, N: 48, Seed: 11, Topology: TopoBarabasiAlbert},
		{Protocol: ProtoTEARS, N: 48, Seed: 11, Topology: TopoRandomRegular},
	}
	for _, cfg := range configs {
		a, errA := Run(context.Background(), GossipSpec(cfg))
		b, errB := Run(context.Background(), GossipSpec(cfg))
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s/%s: error mismatch: %v vs %v", cfg.Protocol, cfg.Topology, errA, errB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s on %q: results differ across identical runs:\n%+v\n%+v",
				cfg.Protocol, cfg.Topology, a, b)
		}
	}
}

// TestRunConsensusDeterministic: the same for consensus runs.
func TestRunConsensusDeterministic(t *testing.T) {
	configs := []ConsensusConfig{
		{Transport: TransportTEARS, N: 32, F: 7, Seed: 13},
		{Transport: TransportDirect, N: 32, F: 7, Seed: 13},
		{Transport: TransportEARS, N: 32, F: 7, Seed: 13, Topology: TopoErdosRenyi},
	}
	for _, cfg := range configs {
		a, errA := Run(context.Background(), ConsensusSpec(cfg))
		b, errB := Run(context.Background(), ConsensusSpec(cfg))
		if (errA == nil) != (errB == nil) {
			t.Fatalf("CR-%s/%s: error mismatch: %v vs %v", cfg.Transport, cfg.Topology, errA, errB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("CR-%s on %q: results differ across identical runs:\n%+v\n%+v",
				cfg.Transport, cfg.Topology, a, b)
		}
	}
}
