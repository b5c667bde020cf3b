package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/scenario"
)

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runShort runs one short-mode invocation and returns its result line.
func runShort(t *testing.T, workload, trace string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", trace, "--short"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("%s trace=%s: exit %d: %s", workload, trace, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	if len(lines) < 3 || !strings.HasPrefix(lines[0], `{"env":`) {
		t.Fatalf("missing environment block: %q", lines[0])
	}
	return r
}

// TestShortWorkloads runs every workload in short mode, untraced and
// traced, and checks that it passes its gate and prints every metric
// BENCHMARK.json names, with its unit. End-to-end metrics must never be
// zero: their regression bounds are shares of their medians.
func TestShortWorkloads(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		if _, err := workloadByName(sw.Name); err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			trace string
			want  []specMetric
		}{{"0", spec.EndToEnd}, {"1", spec.PerLayer}} {
			r := runShort(t, sw.Name, tc.trace)
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", sw.Name, tc.trace, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(tc.want) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json names %d", sw.Name, tc.trace, len(r.Metrics), len(tc.want))
			}
			for _, m := range tc.want {
				got, ok := r.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%s: metric %s missing", sw.Name, tc.trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%s: metric %s unit %q, want %q", sw.Name, tc.trace, m.Name, got.Unit, m.Unit)
				case tc.trace == "0" && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v", sw.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestGateRejectsWrongExpectation corrupts one recorded count and checks
// that the next pass fails the gate and reports it.
func TestGateRejectsWrongExpectation(t *testing.T) {
	for _, name := range []string{"sim-sears", "sim-pushpull", "fuzz-mix"} {
		w, _ := workloadByName(name)
		h := newHarness(w, 5, true)
		if _, _, err := h.setupS(); err != nil {
			t.Fatal(err)
		}
		if h.failed != 0 {
			t.Fatalf("%s: clean set-up failed: %v", name, h.failures)
		}
		h.pass(false, nil, nil)
		if h.failed != 0 {
			t.Fatalf("%s: repeat pass failed: %v", name, h.failures)
		}
		h.expect[0].Msgs++
		h.pass(false, nil, nil)
		if h.failed != 1 || len(h.failures) != 1 {
			t.Fatalf("%s: wrong expectation gave failed=%d %v", name, h.failed, h.failures)
		}
		// The traced ops are held to the same expectations, and a traced
		// mismatch is counted on its own.
		h.pass(false, newSpans(), nil)
		if h.failed != 2 || h.tracedMismatches != 1 || h.tracedCompared != h.ops.n {
			t.Fatalf("%s: traced pass with wrong expectation gave failed=%d mismatches=%d compared=%d",
				name, h.failed, h.tracedMismatches, h.tracedCompared)
		}
	}
}

// TestCodecSampledOnClusterOnly: the wire codec is timed on the cluster's
// captured messages and reads 0 on the workloads that never reach it.
func TestCodecSampledOnClusterOnly(t *testing.T) {
	for _, name := range []string{"sim-sears", "fuzz-mix", "cluster-ears"} {
		r := runShort(t, name, "1")
		enc, fb := r.Metrics["cluster.encode_ns_per_msg"].Value, r.Metrics["cluster.frame_bytes_per_msg"].Value
		if cl := name == "cluster-ears"; cl != (enc > 0 && fb > 0) {
			t.Errorf("%s: encode_ns_per_msg=%v frame_bytes_per_msg=%v", name, enc, fb)
		}
	}
}

// TestRefKernelsDeterministic: the reference probe's data and results are
// the same on every build, so the nominal times stay meaningful.
func TestRefKernelsDeterministic(t *testing.T) {
	a, b := newRefKernels(), newRefKernels()
	if !equalU64(a.a, b.a) || !equalU64(a.b, b.b) {
		t.Fatal("operand arrays differ between instances")
	}
	if pa, pb := a.orPopcount(), b.orPopcount(); pa != pb || pa != a.orPopcount() {
		t.Fatalf("orPopcount not deterministic: %d, %d", pa, pb)
	}
	if ca, cb := a.chase(refChaseSteps), b.chase(refChaseSteps); ca != cb {
		t.Fatalf("chase not deterministic: %d, %d", ca, cb)
	}
	// One cycle through every slot: a full lap returns to the start and no
	// shorter one does.
	if end := a.chase(refChaseLen); end != 0 {
		t.Fatalf("full lap ends at %d, want 0", end)
	}
	if end := a.chase(refChaseLen / 2); end == 0 {
		t.Fatal("half lap returned to the start: the chase has a short cycle")
	}
	const golden = 3146487 // popcount of a|b for the frozen xorshift stream
	if got := a.orPopcount(); got != golden {
		t.Fatalf("orPopcount = %d, want the frozen %d", got, golden)
	}
	if s := a.probe(); s.OrNs <= 0 || s.ChaseNs <= 0 || s.Factor() <= 0 {
		t.Fatalf("probe = %+v", s)
	}
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/bitset.(*Matrix).UnionWith": "bitset",
		"repro/internal/sim.(*World).stepProcess":   "sim",
		"repro.runGossipSpec":                       "repro",
		"main.(*timedNode).Step":                    "bench",
		"repro/gossipbench.(*harness).pass":         "bench",
		"runtime.mallocgc":                          "",
		"net.(*conn).Write":                         "",
	} {
		got, _ := layerOf(funcPackage(fn))
		if got != want {
			t.Errorf("layerOf(%s) = %q, want %q", fn, got, want)
		}
	}
}

// TestSplitProfile profiles busy work in this package and checks the
// decoder charges it to the benchmark layer.
func TestSplitProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	k := newRefKernels()
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		refSink += uint64(k.orPopcount())
	}
	pprof.StopCPUProfile()
	split, err := splitProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if split.samples == 0 {
		t.Skip("no samples collected")
	}
	sum := 0.0
	for _, f := range split.layer {
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("layer shares sum to %v", sum)
	}
	if split.layer["bench"] < 0.5 {
		t.Fatalf("bench share %v of %d samples; split %v", split.layer["bench"], split.samples, split.layer)
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	if got := median(v); got != 2.5 {
		t.Fatalf("median = %v", got)
	}
	if got := quantile(v, 0.9); got < 3.69 || got > 3.71 {
		t.Fatalf("p90 = %v", got)
	}
	if median(nil) != 0 {
		t.Fatal("median of nothing")
	}
}

func TestBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sim-sears", "--trace", "2"},
		{"--workload", "sim-sears", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// TestKnownDefectStillFails pins a reproducer of the defect fuzz-mix
// leaves out (knownDefect): scenarios 224 and 682 of --seed 496903650's
// stream are push on Erdős–Rényi graphs that fail the completion oracle.
// When the program is fixed this test fails, and the exclusion should go.
func TestKnownDefectStillFails(t *testing.T) {
	master := repro.DeriveSeed(496903650, "fuzz-mix", 0)
	keep, excluded := fuzzIndices(master, 1024)
	if len(keep) != 1024 || len(excluded) == 0 {
		t.Fatalf("kept %d, excluded %d", len(keep), len(excluded))
	}
	seen := map[int64]bool{}
	for _, idx := range excluded {
		seen[idx] = true
		if !knownDefect(scenario.Generate(master, idx)) {
			t.Errorf("scenario %d excluded but not push on erdos-renyi", idx)
		}
	}
	for _, idx := range keep {
		if seen[idx] || knownDefect(scenario.Generate(master, idx)) {
			t.Errorf("scenario %d kept but push on erdos-renyi", idx)
		}
	}
	for _, idx := range []int64{224, 682} {
		if !seen[idx] {
			t.Errorf("failing scenario %d not excluded", idx)
		}
		r, err := repro.Run(context.Background(),
			repro.FuzzSpec{Runs: 1, Seed: master, FirstIndex: idx}, repro.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Fuzz.Reports) != 1 || r.Fuzz.Reports[0].Violations[0].Oracle != "completion" {
			t.Errorf("scenario %d: want one completion violation, got %d reports", idx, len(r.Fuzz.Reports))
		}
	}
}
