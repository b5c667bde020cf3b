package main

import (
	"math"
	"time"
)

// The host-drift reference. On a shared host, neighbouring tenants compete
// for the core's caches, so identical work can take 50% longer minutes
// later with no steal time and CPU time tracking wall time. CPU-bound ops
// are therefore timed between short, frozen reference probes, and their
// times are scaled by nominal ÷ measured probe time, pooled over a phase
// (see opTimes in bench.go). The probe is the geometric mean of two
// kernels that stress what the workloads stress: a word-wise OR+popcount
// over 1 MiB (the bitset merge and count) and a random pointer chase over
// 1 MiB (the mailbox, CSR and node state).
//
// The kernels, their sizes and the nominal times below are frozen: changing
// any of them changes every calibrated number, so it is a benchmark change,
// never part of a change that claims a gain.
const (
	refWords      = 1 << 16 // two 512 KiB operand arrays
	refChaseLen   = 1 << 18 // 1 MiB of uint32 successor indices
	refChaseSteps = 1 << 17 // half the cycle per probe
	refRepeats    = 3       // each kernel's time is the minimum of this many

	// Nominal kernel times (ns): the medians measured on the reference
	// host (2 vCPU x86-64, 2 MiB L2 per core) on a quiet machine, so a
	// calibrated time reads as the time that host would have taken.
	nominalOrNs    = 118000
	nominalChaseNs = 1200000
)

// refKernels holds the probe's fixed, seeded working set.
type refKernels struct {
	a, b []uint64
	next []uint32
}

// newRefKernels builds the probe's data from a fixed xorshift stream: the
// same bytes on every host and every run.
func newRefKernels() *refKernels {
	k := &refKernels{
		a:    make([]uint64, refWords),
		b:    make([]uint64, refWords),
		next: make([]uint32, refChaseLen),
	}
	x := uint64(0x9E3779B97F4A7C15)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range k.a {
		k.a[i], k.b[i] = rnd(), rnd()
	}
	// Sattolo's algorithm: a single cycle through every slot, so the chase
	// never settles into a short, cache-resident loop.
	for i := range k.next {
		k.next[i] = uint32(i)
	}
	for i := len(k.next) - 1; i > 0; i-- {
		j := int(rnd() % uint64(i))
		k.next[i], k.next[j] = k.next[j], k.next[i]
	}
	return k
}

// orPopcount returns the population count of a|b, word by word.
func (k *refKernels) orPopcount() int {
	total := 0
	b := k.b[:len(k.a)]
	for i, w := range k.a {
		total += popcount(w | b[i])
	}
	return total
}

func popcount(w uint64) int {
	// Written out rather than math/bits.OnesCount64 so the kernel's code
	// does not depend on the compiler's choice of POPCNT.
	w -= (w >> 1) & 0x5555555555555555
	w = (w & 0x3333333333333333) + ((w >> 2) & 0x3333333333333333)
	w = (w + (w >> 4)) & 0x0F0F0F0F0F0F0F0F
	return int((w * 0x0101010101010101) >> 56)
}

// chase follows steps successor links from slot 0 and returns the slot it
// ends on.
func (k *refKernels) chase(steps int) uint32 {
	p := uint32(0)
	next := k.next
	for i := 0; i < steps; i++ {
		p = next[p]
	}
	return p
}

// refSample is one probe: each kernel's best-of-refRepeats time.
type refSample struct {
	OrNs, ChaseNs int64
}

// refSink keeps the kernels' results live so the compiler cannot drop them.
var refSink uint64

// probe times both kernels.
func (k *refKernels) probe() refSample {
	s := refSample{OrNs: math.MaxInt64, ChaseNs: math.MaxInt64}
	for r := 0; r < refRepeats; r++ {
		t := time.Now()
		refSink += uint64(k.orPopcount())
		if d := time.Since(t).Nanoseconds(); d < s.OrNs {
			s.OrNs = d
		}
		t = time.Now()
		refSink += uint64(k.chase(refChaseSteps))
		if d := time.Since(t).Nanoseconds(); d < s.ChaseNs {
			s.ChaseNs = d
		}
	}
	return s
}

// calibrator runs the probe and keeps every raw reference time it saw.
type calibrator struct {
	k   *refKernels
	all []float64 // every probe's raw reference time (ms)
}

func newCalibrator() *calibrator {
	c := &calibrator{k: newRefKernels()}
	c.k.probe() // touch the working set once so the first probe is warm
	return c
}

// probe runs the reference kernels and returns their calibration factor.
func (c *calibrator) probe() float64 {
	s := c.k.probe()
	c.all = append(c.all, s.RefMs())
	return s.Factor()
}

// RefMs is the probe's raw time: the geometric mean of the two kernels.
func (s refSample) RefMs() float64 {
	return math.Sqrt(float64(s.OrNs)*float64(s.ChaseNs)) / 1e6
}

// Factor scales a raw time measured next to this probe to the nominal
// host: nominal ÷ measured, as the geometric mean over both kernels.
func (s refSample) Factor() float64 {
	return math.Sqrt(float64(nominalOrNs) / float64(s.OrNs) *
		float64(nominalChaseNs) / float64(s.ChaseNs))
}
