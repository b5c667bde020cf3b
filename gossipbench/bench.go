package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"time"
)

// harness runs one workload: set-up, the untimed gate pass, and measured
// closed-loop passes over the op list.
type harness struct {
	w     *workload
	seed  int64
	short bool
	cal   *calibrator
	ops   *opList

	expect    []counts
	recorded  []bool
	attempted int
	failed    int
	failures  []string // the first few failure messages

	// tracedCompared and tracedMismatches count the traced ops whose counts
	// were compared with the untraced expectation, and those that differed.
	tracedCompared, tracedMismatches int

	// profiling: the reference probe runs under a goroutine label so the
	// CPU split can leave its samples out.
	profiling bool
}

func newHarness(w *workload, seed int64, short bool) *harness {
	return &harness{w: w, seed: seed, short: short, cal: newCalibrator()}
}

// factor runs the reference probe and returns its calibration factor.
func (h *harness) factor() float64 {
	var f float64
	probe := func(context.Context) { f = h.cal.probe() }
	if h.profiling {
		pprof.Do(context.Background(), pprof.Labels(probeLabel, "probe"), probe)
	} else {
		probe(nil)
	}
	return f
}

// check gates one op: a failure counts and is never dropped; on exact
// workloads the op's counts must equal the expectation recorded for its
// seed by the first set-up pass. traced marks an op of the traced run.
func (h *harness) check(i int, out opOut, record, traced bool) {
	h.attempted++
	var err error
	switch {
	case out.err != nil:
		err = out.err
	case !h.w.exact:
	case record && !h.recorded[i]:
		h.expect[i], h.recorded[i] = out.counts, true
	case !h.recorded[i]:
		err = fmt.Errorf("no expectation recorded")
	default:
		if traced {
			h.tracedCompared++
		}
		if out.counts != h.expect[i] {
			err = fmt.Errorf("counts %+v, expected %+v", out.counts, h.expect[i])
			if traced {
				h.tracedMismatches++
			}
		}
	}
	if err != nil {
		h.failed++
		if len(h.failures) < 5 {
			h.failures = append(h.failures, fmt.Sprintf("%s op %d: %v", h.w.name, i, err))
		}
	}
}

// opRec is one timed op.
type opRec struct {
	rawNs, cpuNs int64
	msgs         int64
}

// passOut is one pass over the op list: the ops' records, the pass's probe
// factors and the largest resident set seen after an op.
type passOut struct {
	recs    []opRec
	factors []float64
	rssMiB  float64
}

// wallFactor is the factor applied to wall times: the phase's calibration
// factor on CPU-bound workloads, 1 on pacing-bound ones. CPU time is always
// scaled by the phase's factor: on the cluster, too, it is work that cache
// contention slows (raw, its spread over five runs was 17%; calibrated, 4%).
func (h *harness) wallFactor(factor float64) float64 {
	if h.w.calibrated {
		return factor
	}
	return 1
}

// pass runs every op once, probing before every calEvery-th op, and
// returns the timed records. sp selects the traced ops.
func (h *harness) pass(record bool, sp *spans, lat *[]int64) passOut {
	out := passOut{recs: make([]opRec, 0, h.ops.n)}
	for i := 0; i < h.ops.n; i++ {
		if i%h.w.calEvery == 0 {
			out.factors = append(out.factors, h.factor())
		}
		c0 := cpuNs()
		t0 := time.Now()
		var res opOut
		if sp != nil {
			res = h.ops.traced(i, sp)
		} else {
			res = h.ops.run(i)
		}
		raw := time.Since(t0).Nanoseconds()
		out.recs = append(out.recs, opRec{rawNs: raw, cpuNs: cpuNs() - c0, msgs: res.msgs})
		out.rssMiB = math.Max(out.rssMiB, rssMiB())
		if lat != nil {
			*lat = append(*lat, res.lat...)
		}
		h.check(i, res, record, sp != nil)
	}
	return out
}

// opTimes collects each op's times over the passes of a phase, and the
// phase's probe factors.
//
// Every pass repeats the same ops, so a phase's time is the sum over ops of
// each op's median time across the passes, scaled by the median factor of
// all the phase's probes. On a shared host, bursts of steal time and cache
// contention slow single ops and whole passes; the medians leave those
// out, and pooling every probe keeps one 1–2 ms probe that caught such a
// burst from scaling anything on its own. Each op's fastest run would mix
// a quiet moment with a typical factor (README.md, "Host drift and
// calibration", compares the estimators).
type opTimes struct {
	rawNs, cpuNs [][]float64 // [op][pass]
	factors      []float64
}

func (t *opTimes) add(p passOut) {
	if t.rawNs == nil {
		t.rawNs = make([][]float64, len(p.recs))
		t.cpuNs = make([][]float64, len(p.recs))
	}
	for i, r := range p.recs {
		t.rawNs[i] = append(t.rawNs[i], float64(r.rawNs))
		t.cpuNs[i] = append(t.cpuNs[i], float64(r.cpuNs))
	}
	t.factors = append(t.factors, p.factors...)
}

// factor is the phase's calibration factor.
func (t *opTimes) factor() float64 { return median(t.factors) }

// medians returns each op's median over the passes.
func medians(perOp [][]float64) []float64 {
	out := make([]float64, len(perOp))
	for i, v := range perOp {
		out[i] = median(v)
	}
	return out
}

// setupS is the set-up time in seconds, raw and calibrated: one set-up
// builds the op list and makes the untimed pass that records (first
// set-up) or re-checks (later ones) each seed's counts. A run sets up
// setupReps times; the time is the median build plus the ops' medians
// over the set-ups, as opTimes describes.
func (h *harness) setupS() (raw, cal float64, err error) {
	var t opTimes
	var builds []float64
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		ops, err := h.w.build(h.seed, h.short)
		if err != nil {
			return 0, 0, err
		}
		builds = append(builds, float64(time.Since(t0).Nanoseconds()))
		if h.ops == nil {
			h.expect = make([]counts, ops.n)
			h.recorded = make([]bool, ops.n)
		}
		h.ops = ops
		t.add(h.pass(true, nil, nil))
	}
	raw = (median(builds) + sum(medians(t.rawNs))) / 1e9
	return raw, raw * h.wallFactor(t.factor()), nil
}

// passRec aggregates one pass over the op list.
type passRec struct {
	rawNs  float64
	msgs   float64
	rssMiB float64
}

// measurement is one measured phase.
type measurement struct {
	ops        int
	passes     []passRec
	times      opTimes
	lat        []int64
	allocBytes uint64
	rt0, rt1   runtimeSample
	profile    []byte
}

// measure runs whole passes until seconds have elapsed: traced ops when sp
// is set, under a CPU profile when profile is set.
func (h *harness) measure(seconds float64, sp *spans, profile bool) (*measurement, error) {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	m := &measurement{rt0: readRuntime()}
	var prof bytes.Buffer
	if profile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		h.profiling = true
	}
	start := time.Now()
	for len(m.passes) == 0 || time.Since(start).Seconds() < seconds {
		p := h.pass(false, sp, &m.lat)
		m.times.add(p)
		pr := passRec{rssMiB: p.rssMiB}
		for _, r := range p.recs {
			pr.rawNs += float64(r.rawNs)
			pr.msgs += float64(r.msgs)
			m.ops++
		}
		m.passes = append(m.passes, pr)
	}
	if profile {
		pprof.StopCPUProfile()
		h.profiling = false
		m.profile = prof.Bytes()
	}
	m.rt1 = readRuntime()
	runtime.ReadMemStats(&ms1)
	m.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	return m, nil
}

// opMs returns each op's calibrated time in ms (its median over the
// passes, scaled as opTimes describes).
func (h *harness) opMs(m *measurement) []float64 {
	wf := h.wallFactor(m.times.factor())
	ms := medians(m.times.rawNs)
	for i := range ms {
		ms[i] *= wf / 1e6
	}
	return ms
}

// perPass returns the median over passes of f(pass) — every pass is the
// same work, so the median is robust to a pass that caught interference.
func (m *measurement) perPass(f func(p passRec) float64) float64 {
	v := make([]float64, len(m.passes))
	for i, p := range m.passes {
		v[i] = f(p)
	}
	return median(v)
}
