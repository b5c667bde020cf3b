package repro

import (
	"context"
	"reflect"
	"testing"
)

// TestRunFuzzCleanAndDeterministic: the public fuzzing entry point runs a
// clean session on the default stream, reproducibly, and parallel equals
// serial (the library-level face of the cmd/fuzz acceptance contract).
func TestRunFuzzCleanAndDeterministic(t *testing.T) {
	ctx := context.Background()
	ra, err := Run(ctx, FuzzSpec{Runs: 60, Seed: 1}, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(ctx, FuzzSpec{Runs: 60, Seed: 1}, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	a, b := ra.Fuzz, rb.Fuzz
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("parallel fuzz session differs from serial:\n%+v\n%+v", a, b)
	}
	if len(a.Reports) != 0 {
		t.Fatalf("clean stream produced %d reports; first: %+v", len(a.Reports), a.Reports[0])
	}
	if a.Runs != 60 {
		t.Fatalf("runs = %d", a.Runs)
	}
}

// TestRunFuzzCancellation: a pre-cancelled context skips scenarios rather
// than failing the session.
func TestRunFuzzCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := Run(ctx, FuzzSpec{Runs: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sum := r.Fuzz
	if sum.Skipped != 10 || sum.Runs != 0 {
		t.Fatalf("cancelled session: runs=%d skipped=%d", sum.Runs, sum.Skipped)
	}
}

// TestGenerateScenario: the stream is pure in (seed, index) and the specs
// it yields execute through the public gossip runner's protocol registry
// (every generated protocol name is accepted by a gossip run).
func TestGenerateScenario(t *testing.T) {
	if !reflect.DeepEqual(GenerateScenario(3, 9), GenerateScenario(3, 9)) {
		t.Fatal("GenerateScenario is not deterministic")
	}
	seen := map[string]bool{}
	for i := int64(0); i < 40; i++ {
		spec := GenerateScenario(3, i)
		seen[spec.Protocol] = true
		if _, err := gossipProtoByName(spec.Protocol); err != nil {
			t.Fatalf("generated unknown protocol %q", spec.Protocol)
		}
	}
	if len(seen) < 4 {
		t.Fatalf("only %d distinct protocols in 40 draws", len(seen))
	}
}
