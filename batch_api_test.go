package repro

import (
	"context"
	"errors"
	"testing"
)

func TestRunGossipManyMatchesSerial(t *testing.T) {
	ctx := context.Background()
	specs := make([]GossipSpec, 6)
	for i := range specs {
		specs[i] = GossipSpec{Protocol: ProtoEARS, N: 32, F: 8, Seed: int64(i)}
	}
	results, errs := RunMany(ctx, specs, WithWorkers(4))
	if len(results) != len(specs) || len(errs) != len(specs) {
		t.Fatalf("ragged batch: %d results, %d errs", len(results), len(errs))
	}
	for i, spec := range specs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		serial, err := Run(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		got, want := results[i].Gossip, serial.Gossip
		if got.TimeSteps != want.TimeSteps || got.Messages != want.Messages {
			t.Fatalf("run %d: batch (%d steps, %d msgs) != serial (%d steps, %d msgs)",
				i, got.TimeSteps, got.Messages, want.TimeSteps, want.Messages)
		}
	}
}

func TestRunConsensusManyMatchesSerial(t *testing.T) {
	ctx := context.Background()
	specs := make([]ConsensusSpec, 4)
	for i := range specs {
		specs[i] = ConsensusSpec{Transport: TransportTEARS, N: 16, F: 7, Seed: int64(i)}
	}
	results, errs := RunMany(ctx, specs, WithWorkers(4))
	for i, spec := range specs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		serial, err := Run(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		got, want := results[i].Consensus, serial.Consensus
		if got.Decision != want.Decision || got.Messages != want.Messages {
			t.Fatalf("run %d diverges from serial", i)
		}
	}
}

func TestRunGossipManyPositionalErrors(t *testing.T) {
	specs := []GossipSpec{
		{Protocol: ProtoEARS, N: 16},
		{Protocol: "no-such-protocol", N: 16},
		{Protocol: ProtoEARS, N: 16, Seed: 2},
	}
	results, errs := RunMany(context.Background(), specs, WithWorkers(2))
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("good specs errored: %v %v", errs[0], errs[2])
	}
	if errs[1] == nil {
		t.Fatal("bad spec accepted")
	}
	if results[0] == nil || results[2] == nil {
		t.Fatal("good specs missing results")
	}
}

func TestRunGossipManyCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the batch starts: every run is skipped
	specs := make([]GossipSpec, 8)
	for i := range specs {
		specs[i] = GossipSpec{Protocol: ProtoEARS, N: 32, F: 8, Seed: int64(i)}
	}
	_, errs := RunMany(ctx, specs, WithWorkers(2))
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: got %v, want context.Canceled", i, err)
		}
	}
}

func TestDeriveSeedExported(t *testing.T) {
	if DeriveSeed(0, "a", 0) == DeriveSeed(0, "b", 0) {
		t.Fatal("labels do not separate seed streams")
	}
	if DeriveSeed(0, "a", 1) != DeriveSeed(0, "a", 1) {
		t.Fatal("DeriveSeed not deterministic")
	}
}
