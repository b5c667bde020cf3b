package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// median returns the middle value (mean of the two middle values for an
// even count), or 0 for no values.
func median(v []float64) float64 { return quantile(v, 0.5) }

// sum returns the sum of v.
func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// quantile returns the q-quantile by linear interpolation between closest
// ranks (the same rule as numpy's default), or 0 for no values.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// cpuNs returns the process's user+system CPU time so far.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// rssMiB returns the process's current resident set size from
// /proc/self/statm, or its peak from getrusage where /proc is unavailable.
func rssMiB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err == nil {
		if f := strings.Fields(string(b)); len(f) > 1 {
			if pages, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				return float64(pages*int64(os.Getpagesize())) / (1 << 20)
			}
		}
	}
	return maxRSSMiB()
}

// maxRSSMiB returns the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeSample reads the runtime/metrics the per-layer report needs.
type runtimeSample struct {
	gcCPU, totalCPU float64 // seconds
	gcCycles        uint64
	sched           *metrics.Float64Histogram
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	var r runtimeSample
	if ss[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = ss[0].Value.Float64()
	}
	if ss[1].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = ss[1].Value.Float64()
	}
	if ss[2].Value.Kind() == metrics.KindUint64 {
		r.gcCycles = ss[2].Value.Uint64()
	}
	if ss[3].Value.Kind() == metrics.KindFloat64Histogram {
		r.sched = ss[3].Value.Float64Histogram()
	}
	return r
}

// schedP99Us returns the 99th percentile of goroutine scheduling latency
// between two samples, in microseconds, interpolated linearly within the
// histogram bucket that holds it.
func schedP99Us(before, after runtimeSample) float64 {
	if before.sched == nil || after.sched == nil || len(before.sched.Counts) != len(after.sched.Counts) {
		return 0
	}
	delta := make([]uint64, len(after.sched.Counts))
	var total uint64
	for i := range delta {
		delta[i] = after.sched.Counts[i] - before.sched.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	rank := 0.99 * float64(total)
	seen := 0.0
	for i, c := range delta {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := after.sched.Buckets[i], after.sched.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				return lo * 1e6
			}
			return (lo + (hi-lo)*(rank-seen)/float64(c)) * 1e6
		}
		seen += float64(c)
	}
	return 0
}
