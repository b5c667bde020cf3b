package repro

import (
	"context"
	"strings"
	"testing"
)

func TestRunGossipDefaults(t *testing.T) {
	r, err := Run(context.Background(), GossipSpec{N: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := r.Gossip
	if !res.Completed {
		t.Fatalf("%+v", res)
	}
	if len(res.Rumors) != 32 {
		t.Fatalf("rumor sets: %d", len(res.Rumors))
	}
	for p, rs := range res.Rumors {
		if len(rs) != 32 {
			t.Fatalf("process %d knows %d rumors, want 32", p, len(rs))
		}
	}
}

func TestRunGossipAllProtocols(t *testing.T) {
	for _, proto := range []string{
		ProtoTrivial, ProtoEARS, ProtoSEARS, ProtoTEARS,
		ProtoSyncEpidemic, ProtoSyncDeterministic,
		ProtoPush, ProtoPull, ProtoPushPull, ProtoAverage,
	} {
		spec := GossipSpec{Protocol: proto, N: 32, F: 8, D: 2, Delta: 2, Seed: 2}
		switch proto {
		case ProtoSyncEpidemic, ProtoSyncDeterministic:
			spec.D, spec.Delta = 1, 1 // sync baselines assume d = δ = 1
		case ProtoPush, ProtoPull, ProtoPushPull, ProtoAverage:
			spec.F = 0 // crashes are outside the O(1)-state families' promises
		}
		r, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if !r.Gossip.Completed {
			t.Fatalf("%s: not completed", proto)
		}
	}
}

func TestRunGossipCrashReporting(t *testing.T) {
	r, err := Run(context.Background(), GossipSpec{
		Protocol: ProtoEARS, N: 24, F: 6, Adversary: AdversaryCrashStorm, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res := r.Gossip; res.Crashes != 6 || len(res.Crashed) != 6 {
		t.Fatalf("crash accounting: %d / %v", res.Crashes, res.Crashed)
	}
}

func TestRunGossipErrors(t *testing.T) {
	for _, bad := range []GossipSpec{{Protocol: "nope", N: 8}, {N: 0}, {N: 8, Adversary: "nope"}} {
		if _, err := Run(context.Background(), bad); err == nil {
			t.Fatalf("bad spec %+v accepted", bad)
		}
	}
}

func TestRunConsensusAllTransports(t *testing.T) {
	for _, tr := range []string{TransportDirect, TransportEARS, TransportSEARS, TransportTEARS} {
		r, err := Run(context.Background(), ConsensusSpec{
			Transport: tr, N: 24, F: 11, D: 2, Delta: 2, Seed: 4,
		})
		if err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		res := r.Consensus
		if !res.Completed {
			t.Fatalf("%s: not completed", tr)
		}
		if res.Decision > 1 {
			t.Fatalf("%s: non-binary decision %d", tr, res.Decision)
		}
	}
}

func TestRunConsensusUnanimous(t *testing.T) {
	inputs := make([]uint8, 16)
	for i := range inputs {
		inputs[i] = 1
	}
	r, err := Run(context.Background(), ConsensusSpec{N: 16, F: 7, Inputs: inputs, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r.Consensus.Decision != 1 {
		t.Fatalf("decision %d on unanimous 1", r.Consensus.Decision)
	}
}

func TestRunConsensusValidation(t *testing.T) {
	if _, err := Run(context.Background(), ConsensusSpec{N: 8, F: 4}); err == nil {
		t.Fatal("F = N/2 accepted")
	}
}

func TestRunLowerBound(t *testing.T) {
	r, err := Run(context.Background(), LowerBoundSpec{Protocol: ProtoEARS, N: 96, F: 24, Seed: 6, Trials: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep := r.LowerBound
	if !rep.Satisfied() {
		t.Fatalf("dichotomy not witnessed: %s", rep)
	}
	if !strings.Contains(rep.String(), "case=") {
		t.Fatalf("report string: %s", rep)
	}
}

func TestDeterministicAcrossCalls(t *testing.T) {
	spec := GossipSpec{Protocol: ProtoTEARS, N: 64, F: 31, Seed: 7}
	a, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Gossip.Messages != b.Gossip.Messages || a.Gossip.TimeSteps != b.Gossip.TimeSteps {
		t.Fatal("same seed produced different runs")
	}
}

func TestRunGossipTimeline(t *testing.T) {
	ctx := context.Background()
	r, err := Run(ctx, GossipSpec{Protocol: ProtoTEARS, N: 10, F: 2, Seed: 3, Timeline: true})
	if err != nil {
		t.Fatal(err)
	}
	if tl := r.Gossip.Timeline; !strings.Contains(tl, "legend:") || !strings.Contains(tl, "p0") {
		t.Fatalf("timeline missing:\n%s", tl)
	}
	// Without the flag, no timeline is rendered.
	r2, err := Run(ctx, GossipSpec{Protocol: ProtoTEARS, N: 10, F: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Gossip.Timeline != "" {
		t.Fatal("timeline rendered without being requested")
	}
}

func TestRunGossipPartitionPreset(t *testing.T) {
	r, err := Run(context.Background(), GossipSpec{
		Protocol: ProtoEARS, N: 32, F: 0, D: 8, Delta: 2,
		Adversary: "partition", Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Gossip.Completed {
		t.Fatalf("%+v", r.Gossip)
	}
}
