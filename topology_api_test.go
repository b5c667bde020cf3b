package repro

import (
	"context"
	"reflect"
	"testing"
)

// TestTopologyCompleteIdentity: an empty Topology and Topology:"complete"
// produce identical results to each other — and to the pre-topology
// implementation, pinned here by a recorded baseline from the seed tree
// (ears, n=64, f=16, d=δ=2, standard adversary, seed 7). If this test
// fails, the topology refactor changed the protocols' random streams.
func TestTopologyCompleteIdentity(t *testing.T) {
	base := GossipSpec{Protocol: ProtoEARS, N: 64, F: 16, D: 2, Delta: 2, Seed: 7}
	withTopo := base
	withTopo.Topology = TopoComplete

	ra, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(context.Background(), withTopo)
	if err != nil {
		t.Fatal(err)
	}
	a, b := ra.Gossip, rb.Gossip
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("complete topology diverges from default:\n%+v\n%+v", a, b)
	}
	// Recorded pre-topology baseline.
	if a.TimeSteps != 143 || a.Messages != 3994 || a.Bytes != 1937114 || a.Crashes != 13 {
		t.Fatalf("baseline drift: time=%d messages=%d bytes=%d crashes=%d, want 143/3994/1937114/13",
			a.TimeSteps, a.Messages, a.Bytes, a.Crashes)
	}
}

// TestTopologyEARSCompletes: the acceptance workloads — ears achieves
// full gossip at N=256 on a ring and on an Erdős–Rényi graph, with zero
// off-edge drops (the protocol samples strictly inside neighborhoods).
func TestTopologyEARSCompletes(t *testing.T) {
	for _, topo := range []string{TopoRing, TopoErdosRenyi} {
		r, err := Run(context.Background(), GossipSpec{Protocol: ProtoEARS, N: 256, Seed: 1, Topology: topo})
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		res := r.Gossip
		if !res.Completed {
			t.Fatalf("%s: not completed: %+v", topo, res)
		}
		if res.OffEdgeDrops != 0 {
			t.Fatalf("%s: %d off-edge drops; ears should sample only neighbors", topo, res.OffEdgeDrops)
		}
		for p, rs := range res.Rumors {
			if len(rs) != 256 {
				t.Fatalf("%s: process %d gathered %d rumors, want 256", topo, p, len(rs))
			}
		}
	}
}

// TestTopologyAllFamilies: every family name is accepted and ears
// completes full gossip on all of them at a modest size.
func TestTopologyAllFamilies(t *testing.T) {
	for _, topo := range Topologies() {
		r, err := Run(context.Background(), GossipSpec{Protocol: ProtoEARS, N: 48, Seed: 3, Topology: topo})
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		if !r.Gossip.Completed {
			t.Fatalf("%s: not completed", topo)
		}
	}
}

// TestTopologyUnknownRejected: a bad family name errors, listing nothing
// run.
func TestTopologyUnknownRejected(t *testing.T) {
	if _, err := Run(context.Background(), GossipSpec{N: 8, Topology: "hypercube-of-doom"}); err == nil {
		t.Fatal("unknown topology accepted")
	}
	if _, err := Run(context.Background(), ConsensusSpec{N: 8, F: 3, Topology: "hypercube-of-doom"}); err == nil {
		t.Fatal("unknown topology accepted by a consensus run")
	}
}

// TestTopologyConsensus: consensus over the ears transport decides on a
// (repaired, connected) Erdős–Rényi topology.
func TestTopologyConsensus(t *testing.T) {
	r, err := Run(context.Background(), ConsensusSpec{
		Transport: TransportEARS, N: 32, F: 7, Seed: 2, Topology: TopoErdosRenyi,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Consensus.Completed {
		t.Fatalf("consensus on erdos-renyi did not complete: %+v", r.Consensus)
	}
}
