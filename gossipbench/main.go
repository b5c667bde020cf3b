// Command gossipbench is the repository's end-to-end benchmark: one
// closed-loop client per workload, every end-to-end metric printed with its
// unit, every op's output gated for correctness, CPU-bound timings
// corrected for host drift, and a separate traced run for the per-layer
// split. See README.md for the workloads, metrics and calibration.
//
// Usage:
//
//	gossipbench --workload sim-sears --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result object; the lines before
// it describe the host and give raw and calibrated values side by side.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
)

// setupReps is how many times a run sets up; setup_s combines them (setupS).
const setupReps = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	short    bool
}

func parseArgs(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("gossipbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	var trace int
	fs.StringVar(&c.workload, "workload", "", "workload name")
	fs.Int64Var(&c.seed, "seed", 1, "workload seed: the same seed gives the same ops")
	fs.Float64Var(&c.seconds, "seconds", 10, "seconds to measure")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.BoolVar(&c.short, "short", false, "tiny op sizes (tests)")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if trace != 0 && trace != 1 {
		return c, fmt.Errorf("--trace must be 0 or 1")
	}
	if c.seconds <= 0 {
		return c, fmt.Errorf("--seconds must be positive")
	}
	c.trace = trace == 1
	return c, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	c, err := parseArgs(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "gossipbench:", err)
		}
		return 2
	}
	w, err := workloadByName(c.workload)
	if err != nil {
		fmt.Fprintln(stderr, "gossipbench:", err)
		return 2
	}
	rep, err := execute(w, c)
	if err != nil {
		fmt.Fprintln(stderr, "gossipbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	for _, v := range []any{
		map[string]any{"env": collectEnv()},
		map[string]any{"detail": rep.detail},
		rep.result,
	} {
		if err := enc.Encode(v); err != nil {
			fmt.Fprintln(stderr, "gossipbench:", err)
			return 1
		}
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type report struct {
	result result
	detail map[string]any
}

// execute runs one workload: set up setupReps times, then either measure
// (end-to-end metrics) or measure untraced and traced halves (per-layer).
func execute(w *workload, c config) (*report, error) {
	h := newHarness(w, c.seed, c.short)
	setupRaw, setupCal, err := h.setupS()
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	rep := &report{detail: map[string]any{
		"workload":    w.name,
		"seed":        c.seed,
		"calibrated":  w.calibrated,
		"ops_in_list": h.ops.n,
		"closed_loop": "one client; the next op starts when the previous returns",
	}}
	if len(h.ops.excluded) > 0 {
		// Stream indices of fuzz-mix's known-defect scenarios (knownDefect).
		rep.detail["excluded_known_defect"] = h.ops.excluded
	}
	metrics := map[string]metric{}
	if !c.trace {
		m, err := h.measure(c.seconds, nil, false)
		if err != nil {
			return nil, err
		}
		cal, raw := endToEnd(h, m)
		cal["setup_s"] = metric{setupCal, "s"}
		raw["setup_s"] = metric{setupRaw, "s"}
		metrics = cal
		rep.detail["raw"] = raw
		rep.detail["ops"] = m.ops
		rep.detail["passes"] = len(m.passes)
		if len(m.lat) > 0 {
			rep.detail["delivery_latency"] = deliveryReport(m)
		}
		rep.detail["peak_rss_mib_getrusage"] = maxRSSMiB()
	} else {
		// The CPU profile covers the untraced half, so the split is free of
		// the span wrappers' own cost; the traced half gives the spans.
		m0, err := h.measure(c.seconds/2, nil, true)
		if err != nil {
			return nil, err
		}
		sp := newSpans()
		m1, err := h.measure(c.seconds/2, sp, false)
		if err != nil {
			return nil, err
		}
		split, err := splitProfile(m0.profile)
		if err != nil {
			return nil, fmt.Errorf("reading the CPU profile: %w", err)
		}
		metrics = perLayer(h, m0, m1, sp, split)
		rep.detail["trace"] = traceReport(h, m0, m1, sp, split)
		if len(m0.lat) > 0 {
			rep.detail["delivery_latency"] = deliveryReport(m0)
		}
	}
	rep.detail["ref_ms_median"] = median(h.cal.all)
	rep.detail["fail_ratio"] = float64(h.failed) / float64(max(h.attempted, 1))
	if len(h.failures) > 0 {
		rep.detail["failures"] = h.failures
	}
	for name, v := range metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	rep.result = result{
		Correct:   h.failed == 0,
		Attempted: h.attempted,
		Failed:    h.failed,
		Metrics:   metrics,
	}
	return rep, nil
}

// deliveryReport summarises the cluster's delivery latencies, pooled over
// every delivery of the measured passes, for the detail block.
func deliveryReport(m *measurement) map[string]any {
	d := make([]float64, len(m.lat))
	for i, l := range m.lat {
		d[i] = float64(l) / 1e6
	}
	return map[string]any{
		"samples": len(d),
		"p50_ms":  quantile(d, 0.5),
		"p90_ms":  quantile(d, 0.9),
		"p99_ms":  quantile(d, 0.99),
	}
}

// endToEnd derives the end-to-end metrics (setup_s aside), calibrated and
// raw, from each op's median time over the passes (see opTimes). On
// uncalibrated workloads the wall times of the two agree.
func endToEnd(h *harness, m *measurement) (cal, raw map[string]metric) {
	n := float64(h.ops.n)
	wall := medians(m.times.rawNs)
	cpu := sum(medians(m.times.cpuNs))
	msgs := m.perPass(func(p passRec) float64 { return p.msgs })
	mk := func(wf, cf float64) map[string]metric {
		ms := make([]float64, len(wall))
		for i, ns := range wall {
			ms[i] = ns * wf / 1e6
		}
		passS := sum(ms) / 1e3
		return map[string]metric{
			"ops_per_s":        {n / passS, "1/s"},
			"msgs_per_s":       {msgs / passS, "1/s"},
			"lat_p50_ms":       {quantile(ms, 0.5), "ms"},
			"lat_p90_ms":       {quantile(ms, 0.9), "ms"},
			"cpu_ms_per_op":    {cpu * cf / n / 1e6, "ms"},
			"alloc_mib_per_op": {float64(m.allocBytes) / float64(m.ops) / (1 << 20), "MiB"},
			"max_rss_mib":      {m.perPass(func(p passRec) float64 { return p.rssMiB }), "MiB"},
		}
	}
	f := m.times.factor()
	return mk(h.wallFactor(f), f), mk(1, 1)
}

// splitLayers are the layers the CPU split reports by name; the rest of
// the repro module's packages are summed into other.cpu_frac.
var splitLayers = []string{
	"bitset", "sim", "topology", "core", "adversary", "rng", "scenario",
	"cluster", "telemetry", "runner", "repro", "bench", "runtime",
}

func perLayer(h *harness, m0, m1 *measurement, sp *spans, split profileSplit) map[string]metric {
	ops := float64(m1.ops)
	wall := 0.0
	for _, p := range m1.passes {
		wall += p.rawNs
	}
	frac := func(ns int64) metric { return metric{float64(ns) / wall, "frac"} }
	perOp := func(v int64) metric { return metric{float64(v) / ops, "count"} }
	out := map[string]metric{}

	// Host, runtime and tracing cost, from the untraced half.
	out["host.ref_ms"] = metric{median(h.cal.all), "ms"}
	out["bench.trace_overhead"] = metric{sum(h.opMs(m1)) / sum(h.opMs(m0)), "ratio"}
	cpu := m0.rt1.totalCPU - m0.rt0.totalCPU
	gc := 0.0
	if cpu > 0 {
		gc = (m0.rt1.gcCPU - m0.rt0.gcCPU) / cpu
	}
	out["runtime.gc_cpu_frac"] = metric{gc, "frac"}
	out["runtime.gc_cycles_per_op"] = metric{float64(m0.rt1.gcCycles-m0.rt0.gcCycles) / float64(m0.ops), "count"}
	out["runtime.sched_lat_p99_us"] = metric{schedP99Us(m0.rt0, m0.rt1), "us"}
	out["lat_p99_ms"] = metric{quantile(h.opMs(m0), 0.99), "ms"}

	// CPU split of the untraced half, which ran under the CPU profile.
	known := 0.0
	for _, l := range splitLayers {
		out[l+".cpu_frac"] = metric{split.layer[l], "frac"}
		known += split.layer[l]
	}
	other := 0.0
	if split.samples > 0 {
		other = math.Max(0, 1-known)
	}
	out["other.cpu_frac"] = metric{other, "frac"}
	out["net.cpu_frac"] = metric{split.net, "frac"}

	// Spans, as shares of the traced ops' wall time.
	kernelSelf := int64(0)
	if sp.run > 0 {
		kernelSelf = sp.run - sp.step - sp.evaluate - sp.schedule
	}
	out["repro.setup_frac"] = frac(sp.setup)
	out["core.step_frac"] = frac(sp.step)
	out["core.evaluate_frac"] = frac(sp.evaluate)
	out["adversary.schedule_frac"] = frac(sp.schedule)
	out["sim.kernel_self_frac"] = frac(kernelSelf)
	out["adversary.delay_calls_per_op"] = perOp(sp.delayCalls)
	out["sim.steps_per_op"] = perOp(sp.steps)
	out["sim.msgs_per_op"] = perOp(sp.msgs)
	out["sim.deliveries_per_op"] = perOp(sp.deliveries)
	out["sim.bytes_per_op"] = perOp(sp.bytes)

	out["scenario.gen_frac"] = frac(sp.gen)
	out["scenario.exec_frac"] = frac(sp.exec)
	out["scenario.oracle_frac"] = frac(sp.oracle)
	for _, name := range oracleNames() {
		out["scenario.oracle."+name+"_frac"] = frac(sp.oracles[name])
	}
	out["scenario.twin_runs_per_scenario"] = perOp(sp.twinRuns)

	out["cluster.bringup_frac"] = frac(sp.bringup)
	out["cluster.quiesce_frac"] = frac(sp.quiesce)
	out["cluster.quiesce_to_done_frac"] = frac(sp.quiesceToDone)
	out["cluster.steps_per_op"] = perOp(sp.clSteps)
	useful := 0.0
	if sp.clSteps > 0 {
		useful = float64(sp.usefulSteps) / float64(sp.clSteps)
	}
	out["cluster.useful_step_frac"] = metric{useful, "frac"}
	out["cluster.send_fails_per_op"] = perOp(sp.sendFails)
	enc, dec, fb := 0.0, 0.0, 0.0
	if sp.codecMsgs > 0 {
		c := float64(sp.codecMsgs)
		enc, dec, fb = float64(sp.encodeNs)/c, float64(sp.decodeNs)/c, float64(sp.frameBytes)/c
	}
	out["cluster.encode_ns_per_msg"] = metric{enc, "ns"}
	out["cluster.decode_ns_per_msg"] = metric{dec, "ns"}
	out["cluster.frame_bytes_per_msg"] = metric{fb, "B"}
	return out
}

// traceReport is the traced run's human-facing summary: span totals per
// op, the CPU split, and the overhead against the untraced half.
func traceReport(h *harness, m0, m1 *measurement, sp *spans, split profileSplit) map[string]any {
	ops := float64(m1.ops)
	ms := func(ns int64) float64 { return float64(ns) / ops / 1e6 }
	spanMs := map[string]float64{
		"repro.setup": ms(sp.setup), "core.step": ms(sp.step),
		"core.evaluate": ms(sp.evaluate), "adversary.schedule": ms(sp.schedule),
		"sim.run": ms(sp.run), "scenario.gen": ms(sp.gen), "scenario.exec": ms(sp.exec),
		"scenario.oracle": ms(sp.oracle), "cluster.bringup": ms(sp.bringup),
		"cluster.quiesce": ms(sp.quiesce), "cluster.quiesce_to_done": ms(sp.quiesceToDone),
	}
	for name, ns := range sp.oracles {
		spanMs["scenario.oracle."+name] = ms(ns)
	}
	// Traced counts are compared only on exact workloads; elsewhere the
	// match is not applicable and reads null.
	var match any
	if h.w.exact {
		match = h.tracedCompared > 0 && h.tracedMismatches == 0
	}
	return map[string]any{
		"span_ms_per_op":   spanMs,
		"cpu_split":        split.layer,
		"net_cpu_frac":     split.net,
		"profile_samples":  split.samples,
		"untraced_ops":     m0.ops,
		"traced_ops":       m1.ops,
		"op_ms_untraced":   sum(h.opMs(m0)) / float64(h.ops.n),
		"op_ms_traced":     sum(h.opMs(m1)) / float64(h.ops.n),
		"codec_msgs":       sp.codecMsgs,
		"counts_compared":  h.tracedCompared,
		"count_mismatches": h.tracedMismatches,
		"counts_match":     match,
		"goroutines_after": runtime.NumGoroutine(),
	}
}
