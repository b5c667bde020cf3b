package repro

// The benchmark suite regenerates every table and figure of the paper's
// evaluation (run `go test -bench=. -benchmem`):
//
//	BenchmarkTable1*   — Table 1 rows (gossip: time / message complexity)
//	BenchmarkTable2*   — Table 2 rows (consensus via each get-core)
//	BenchmarkFigure1*  — Theorem 1 / Figure 1 adaptive lower bound
//	BenchmarkCorollary2* — cost-of-asynchrony ratios
//	BenchmarkTheorem12*  — tears' d-independence of message complexity
//	BenchmarkAblation* — DESIGN.md §6 design-choice sweeps
//
// Every benchmark reports the two quantities the paper bounds as custom
// metrics: steps/run (time complexity) and msgs/run (message complexity).
// Wall-clock ns/op measures the simulator, not the protocol, and is
// reported only for completeness. `cmd/tables` renders the same data as
// side-by-side tables against the paper's claims.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/experiments"
	"repro/internal/lowerbound"

	icore "repro/internal/core"
	irng "repro/internal/rng"
	irunner "repro/internal/runner"
	isim "repro/internal/sim"
)

// benchGossip runs one gossip spec b.N times over spec-derived seeds:
// the seed stream is a function of the full spec label (not just the loop
// index), so distinct benchmarks never replay each other's randomness.
//
// Allocation accounting: every iteration shares one snapshot pool (safe —
// the loop is strictly sequential) and one untimed warm-up run fills it
// before the timer starts, so allocs/op reflects the simulator's steady
// state rather than first-run pool warm-up. Seeds and results are
// unaffected: pooling consumes no randomness and runs are bit-identical
// with or without it (see TestPooledKernelMatchesUnpooled).
func benchGossip(b *testing.B, proto string, n, f, d, delta int, adversary string) {
	b.Helper()
	label := fmt.Sprintf("gossip/%s/n=%d/f=%d/d=%d/delta=%d/%s", proto, n, f, d, delta, adversary)
	pool := icore.NewPool(n)
	spec := func(i int) GossipSpec {
		c := GossipSpec{
			Protocol: proto, N: n, F: f, D: d, Delta: delta,
			Adversary: adversary, Seed: irunner.DeriveSeed(0, label, int64(i)),
		}
		c.Tuning.Pool = pool
		return c
	}
	if _, err := Run(context.Background(), spec(0)); err != nil { // warm-up, untimed
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var steps, msgs float64
	for i := 0; i < b.N; i++ {
		r, err := Run(context.Background(), spec(i))
		if err != nil {
			b.Fatal(err)
		}
		steps += float64(r.Gossip.TimeSteps)
		msgs += float64(r.Gossip.Messages)
	}
	b.ReportMetric(steps/float64(b.N), "steps/run")
	b.ReportMetric(msgs/float64(b.N), "msgs/run")
}

// benchConsensus runs one consensus spec b.N times over spec-derived seeds.
// Consensus runs are unpooled (transports buffer payloads across steps —
// see internal/consensus), so there is no pool to share; the warm-up run
// still primes the allocator so allocs/op is steady-state.
func benchConsensus(b *testing.B, transport string, n, f, d, delta int) {
	b.Helper()
	label := fmt.Sprintf("consensus/%s/n=%d/f=%d/d=%d/delta=%d", transport, n, f, d, delta)
	spec := func(i int) ConsensusSpec {
		return ConsensusSpec{
			Transport: transport, N: n, F: f, D: d, Delta: delta,
			Seed: irunner.DeriveSeed(0, label, int64(i)),
		}
	}
	if _, err := Run(context.Background(), spec(0)); err != nil { // warm-up, untimed
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var steps, msgs float64
	for i := 0; i < b.N; i++ {
		r, err := Run(context.Background(), spec(i))
		if err != nil {
			b.Fatal(err)
		}
		steps += float64(r.Consensus.TimeSteps)
		msgs += float64(r.Consensus.Messages)
	}
	b.ReportMetric(steps/float64(b.N), "steps/run")
	b.ReportMetric(msgs/float64(b.N), "msgs/run")
}

// table1Sizes is the n sweep used by the Table 1 benchmarks (f = n/4
// except tears, which runs at its design point f just under n/2).
var table1Sizes = []int{64, 128, 256}

// BenchmarkTable1Trivial reproduces Table 1 row "Trivial": O(d+δ) time,
// Θ(n²) messages.
func BenchmarkTable1Trivial(b *testing.B) {
	for _, n := range table1Sizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchGossip(b, ProtoTrivial, n, n/4, 2, 2, AdversaryStandard)
		})
	}
}

// BenchmarkTable1SyncCK reproduces Table 1 row "CK [9]" via the
// deterministic synchronous substitute: polylog time, n·polylog messages,
// d = δ = 1 known a priori.
func BenchmarkTable1SyncCK(b *testing.B) {
	for _, n := range table1Sizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchGossip(b, ProtoSyncDeterministic, n, n/4, 1, 1, AdversaryStandard)
		})
	}
}

// BenchmarkTable1EARS reproduces Table 1 row "ears" (Theorem 6):
// O(n/(n−f)·log²n·(d+δ)) time, O(n·log³n·(d+δ)) messages.
func BenchmarkTable1EARS(b *testing.B) {
	for _, n := range table1Sizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchGossip(b, ProtoEARS, n, n/4, 2, 2, AdversaryStandard)
		})
	}
}

// BenchmarkTable1SEARS reproduces Table 1 row "sears" (Theorem 7):
// constant time w.r.t. n, subquadratic messages (ε = 1/2).
func BenchmarkTable1SEARS(b *testing.B) {
	for _, n := range table1Sizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchGossip(b, ProtoSEARS, n, n/4, 2, 2, AdversaryStandard)
		})
	}
}

// BenchmarkTable1TEARS reproduces Table 1 row "tears" (Theorem 12):
// O(d+δ) time, O(n^{7/4}·log²n) messages, majority gossip, f < n/2.
func BenchmarkTable1TEARS(b *testing.B) {
	for _, n := range table1Sizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchGossip(b, ProtoTEARS, n, (n-1)/2, 2, 2, AdversaryStandard)
		})
	}
}

// table2Sizes is the n sweep for the consensus benchmarks (f maximal
// minority).
var table2Sizes = []int{32, 64, 128}

// BenchmarkTable2CRBaseline reproduces Table 2 row "Canetti-Rabin":
// O(d+δ) time, O(n²) messages.
func BenchmarkTable2CRBaseline(b *testing.B) {
	for _, n := range table2Sizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchConsensus(b, TransportDirect, n, (n-1)/2, 2, 2)
		})
	}
}

// BenchmarkTable2CREARS reproduces Table 2 row "CR-ears":
// O(log²n·(d+δ)) time, O(n·log³n·(d+δ)) messages.
func BenchmarkTable2CREARS(b *testing.B) {
	for _, n := range table2Sizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchConsensus(b, TransportEARS, n, (n-1)/2, 2, 2)
		})
	}
}

// BenchmarkTable2CRSEARS reproduces Table 2 row "CR-sears":
// O(1/ε·(d+δ)) time, O(n^{1+ε}·log n·(d+δ)) messages.
func BenchmarkTable2CRSEARS(b *testing.B) {
	for _, n := range table2Sizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchConsensus(b, TransportSEARS, n, (n-1)/2, 2, 2)
		})
	}
}

// BenchmarkTable2CRTEARS reproduces Table 2 row "CR-tears" — the paper's
// headline: O(d+δ) time with strictly subquadratic messages.
func BenchmarkTable2CRTEARS(b *testing.B) {
	for _, n := range table2Sizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchConsensus(b, TransportTEARS, n, (n-1)/2, 2, 2)
		})
	}
}

// BenchmarkFigure1LowerBound reproduces the Theorem 1 / Figure 1
// construction: the adaptive adversary forces Ω(n+f²) messages or
// Ω(f(d+δ)) time. Reported metrics are from the constructed execution.
func BenchmarkFigure1LowerBound(b *testing.B) {
	for _, proto := range []string{ProtoTrivial, ProtoEARS, ProtoSEARS, ProtoTEARS} {
		b.Run(proto, func(b *testing.B) {
			var msgs, forced float64
			witnessed := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := Run(context.Background(), LowerBoundSpec{
					Protocol: proto, N: 256, F: 64, Seed: int64(i), Trials: 8,
				})
				if err != nil {
					b.Fatal(err)
				}
				rep := r.LowerBound
				msgs += float64(rep.TotalMessages)
				forced += float64(rep.ForcedTime)
				if rep.Satisfied() {
					witnessed++
				}
			}
			b.ReportMetric(msgs/float64(b.N), "msgs/run")
			b.ReportMetric(forced/float64(b.N), "steps/run")
			b.ReportMetric(float64(witnessed)/float64(b.N), "witnessed")
		})
	}
}

// BenchmarkFigure1Case2Isolation exercises the proof's Case 2 against a
// deliberately message-frugal protocol (every process non-promiscuous), so
// the adversary must isolate a pair and force Ω(f(d+δ)) time.
func BenchmarkFigure1Case2Isolation(b *testing.B) {
	proto := frugalProto{}
	var forced float64
	isolations := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := lowerbound.Run(proto, icore.Params{}, lowerbound.Config{
			N: 256, F: 64, Seed: int64(i), Trials: 16,
		})
		if err != nil {
			b.Fatal(err)
		}
		forced += float64(rep.ForcedTime)
		if rep.Case == lowerbound.CaseIsolation {
			isolations++
		}
	}
	b.ReportMetric(forced/float64(b.N), "steps/run")
	b.ReportMetric(float64(isolations)/float64(b.N), "isolation-rate")
}

// BenchmarkCorollary2CostOfAsynchrony measures the Corollary 2 ratios:
// asynchronous algorithms vs the synchronous optimum at d = δ = 1.
func BenchmarkCorollary2CostOfAsynchrony(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.CostOfAsynchrony(experiments.Env{}, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range res.Rows {
				b.ReportMetric(row.TimeRatio, row.Proto+"-time-ratio")
				b.ReportMetric(row.MsgRatio, row.Proto+"-msg-ratio")
			}
		}
	}
}

// BenchmarkTheorem12DIndependence contrasts message complexity at d=1 vs
// d=16 for ears (linear in d) and tears (d-independent) — the structural
// content of Theorem 12.
func BenchmarkTheorem12DIndependence(b *testing.B) {
	for _, proto := range []string{ProtoEARS, ProtoTEARS} {
		for _, d := range []int{1, 16} {
			b.Run(fmt.Sprintf("%s/d=%d", proto, d), func(b *testing.B) {
				benchGossip(b, proto, 128, 32, d, 1, AdversaryMaxDelay)
			})
		}
	}
}

// BenchmarkTheorem6SurvivorFactor sweeps f for ears under the crash storm:
// completion time must track n/(n−f) (Theorem 6's epoch factor).
func BenchmarkTheorem6SurvivorFactor(b *testing.B) {
	n := 128
	for _, f := range []int{0, n / 2, 7 * n / 8} {
		b.Run(fmt.Sprintf("f=%d", f), func(b *testing.B) {
			benchGossip(b, ProtoEARS, n, f, 2, 2, AdversaryCrashStorm)
		})
	}
}

// BenchmarkCrossoverEarsVsTrivial measures the message counts around the
// ears/trivial crossover point.
func BenchmarkCrossoverEarsVsTrivial(b *testing.B) {
	for _, n := range []int{32, 64, 128} {
		for _, proto := range []string{ProtoTrivial, ProtoEARS} {
			b.Run(fmt.Sprintf("%s/n=%d", proto, n), func(b *testing.B) {
				benchGossip(b, proto, n, n/4, 2, 2, AdversaryStandard)
			})
		}
	}
}

// BenchmarkAblationEarsShutdown sweeps the ears shut-down constant.
func BenchmarkAblationEarsShutdown(b *testing.B) {
	for _, c := range []float64{0.5, 2, 6, 12} {
		b.Run(fmt.Sprintf("c=%v", c), func(b *testing.B) {
			var steps, msgs float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				spec := GossipSpec{
					Protocol: ProtoEARS, N: 128, F: 32, D: 2, Delta: 2,
					Seed: irunner.DeriveSeed(0, fmt.Sprintf("ablation-shutdown/c=%v", c), int64(i)),
				}
				spec.Tuning.ShutdownC = c
				r, err := Run(context.Background(), spec)
				if err != nil {
					b.Fatal(err)
				}
				steps += float64(r.Gossip.TimeSteps)
				msgs += float64(r.Gossip.Messages)
			}
			b.ReportMetric(steps/float64(b.N), "steps/run")
			b.ReportMetric(msgs/float64(b.N), "msgs/run")
		})
	}
}

// BenchmarkAblationSearsEpsilon sweeps sears' ε (Theorem 7's 1/ε vs n^ε
// trade-off).
func BenchmarkAblationSearsEpsilon(b *testing.B) {
	for _, eps := range []float64{0.25, 0.5, 0.75} {
		b.Run(fmt.Sprintf("eps=%v", eps), func(b *testing.B) {
			var steps, msgs float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				spec := GossipSpec{
					Protocol: ProtoSEARS, N: 128, F: 32, D: 2, Delta: 2,
					Seed: irunner.DeriveSeed(0, fmt.Sprintf("ablation-epsilon/eps=%v", eps), int64(i)),
				}
				spec.Tuning.Epsilon = eps
				r, err := Run(context.Background(), spec)
				if err != nil {
					b.Fatal(err)
				}
				steps += float64(r.Gossip.TimeSteps)
				msgs += float64(r.Gossip.Messages)
			}
			b.ReportMetric(steps/float64(b.N), "steps/run")
			b.ReportMetric(msgs/float64(b.N), "msgs/run")
		})
	}
}

// BenchmarkAblationCoin compares the common coin against Ben-Or local
// coins on the direct transport. The local coin is *expected* to blow up
// occasionally: when crashes leave exactly ⌊n/2⌋+1 survivors, a decision
// needs all survivors' independent coins to agree — the exponential
// worst case the Canetti–Rabin shared coin exists to eliminate. Runs that
// exhaust the step budget are therefore reported as a timeout rate, not a
// failure.
func BenchmarkAblationCoin(b *testing.B) {
	for _, local := range []bool{false, true} {
		name := "common"
		if local {
			name = "local"
		}
		b.Run(name, func(b *testing.B) {
			var steps, rounds float64
			decided := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := Run(context.Background(), ConsensusSpec{
					Transport: TransportDirect, N: 32, F: 15, D: 2, Delta: 2,
					Seed: int64(i), LocalCoin: local,
					MaxSteps: 20000,
				})
				switch {
				case err == nil:
					decided++
					steps += float64(r.Consensus.TimeSteps)
					rounds += float64(r.Consensus.MaxRounds)
				case errors.Is(err, isim.ErrTimeout):
					// Ben-Or pathology; counted below.
				default:
					b.Fatal(err)
				}
			}
			if decided > 0 {
				b.ReportMetric(steps/float64(decided), "steps/run")
				b.ReportMetric(rounds/float64(decided), "rounds/run")
			}
			b.ReportMetric(1-float64(decided)/float64(b.N), "timeout-rate")
		})
	}
}

// BenchmarkAblationNaiveEpidemic contrasts the §1 strawman (fixed
// repetition count, no informed list) against ears under a scheduler that
// starves one process until everyone else has finished: the naive
// protocol quiesces with the gathering property violated, ears reawakens
// and completes. The reported metric is the completion rate — the reason
// the informed list exists.
func BenchmarkAblationNaiveEpidemic(b *testing.B) {
	const (
		n        = 64
		switchAt = 3000
	)
	for _, protoName := range []string{"naive", ProtoEARS} {
		proto, err := icore.ByName(protoName)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(protoName, func(b *testing.B) {
			completed := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := isim.Config{N: n, F: 0, D: 1, Delta: 1, Seed: int64(i), MaxSteps: 4 * switchAt}
				p := icore.Params{N: n, F: 0}
				nodes, err := icore.NewNodes(proto, p, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				adv := starvationAdversary{victim: 0, switchAt: switchAt, n: n}
				w, err := isim.NewWorld(cfg, nodes, adv)
				if err != nil {
					b.Fatal(err)
				}
				if res, err := w.Run(proto.Evaluator(p)); err == nil && res.Completed {
					completed++
				}
			}
			b.ReportMetric(float64(completed)/float64(b.N), "completion-rate")
		})
	}
}

// starvationAdversary freezes one process until switchAt, then schedules
// everyone; delay 1, no crashes.
type starvationAdversary struct {
	victim   isim.ProcID
	switchAt isim.Time
	n        int
}

func (a starvationAdversary) Schedule(t isim.Time, _ isim.View, buf []isim.ProcID) []isim.ProcID {
	for i := 0; i < a.n; i++ {
		if isim.ProcID(i) == a.victim && t < a.switchAt {
			continue
		}
		buf = append(buf, isim.ProcID(i))
	}
	return buf
}

func (starvationAdversary) Delay(isim.Time, isim.ProcID, isim.ProcID) isim.Time { return 1 }

func (starvationAdversary) Crashes(_ isim.Time, _ isim.View, buf []isim.ProcID) []isim.ProcID {
	return buf
}

// BenchmarkBitComplexity reports the byte-complexity extension (paper §7
// future work): approximate payload bytes moved per run, per protocol.
func BenchmarkBitComplexity(b *testing.B) {
	for _, proto := range []string{ProtoTrivial, ProtoEARS, ProtoSEARS, ProtoTEARS} {
		b.Run(proto, func(b *testing.B) {
			var bytes, msgs float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := Run(context.Background(), GossipSpec{
					Protocol: proto, N: 128, F: 32, D: 2, Delta: 2,
					Adversary: AdversaryStandard, Seed: int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				bytes += float64(r.Gossip.Bytes)
				msgs += float64(r.Gossip.Messages)
			}
			b.ReportMetric(bytes/float64(b.N), "bytes/run")
			if msgs > 0 {
				b.ReportMetric(bytes/msgs, "bytes/msg")
			}
		})
	}
}

// frugalProto is the message-frugal protocol used by the Case 2 benchmark:
// one message per process, ever — every process is non-promiscuous, so the
// Theorem 1 adversary must take the isolation branch.
type frugalProto struct{}

var _ icore.Protocol = frugalProto{}

func (frugalProto) Name() string { return "frugal" }

func (frugalProto) NewNode(id isim.ProcID, p icore.Params, r *irng.RNG) isim.Node {
	return &frugalNode{
		Tracker: icore.NewTracker(p.N, id, icore.NoValue, false),
		id:      id,
		n:       p.N,
		r:       r,
	}
}

func (frugalProto) Evaluator(p icore.Params) isim.Evaluator {
	return icore.FullGossipEvaluator{Params: p.WithDefaults()}
}

type frugalNode struct {
	icore.Tracker
	id   isim.ProcID
	n    int
	sent bool
	r    *irng.RNG
}

func (f *frugalNode) ID() isim.ProcID { return f.id }

func (f *frugalNode) Step(now isim.Time, inbox []isim.Message, out *isim.Outbox) {
	for _, m := range inbox {
		if pl, ok := m.Payload.(*icore.GossipPayload); ok {
			f.Absorb(pl.Rumors, now)
		}
	}
	if !f.sent {
		f.sent = true
		out.Send(isim.ProcID(f.r.Intn(f.n)), &icore.GossipPayload{Rumors: f.Rumors().Snapshot()})
	}
}

func (f *frugalNode) Quiescent() bool { return f.sent }

func (f *frugalNode) CloneNode() isim.Node {
	return &frugalNode{Tracker: f.CloneTracker(), id: f.id, n: f.n, sent: f.sent, r: f.r.Clone()}
}

func (f *frugalNode) Reseed(r *irng.RNG) { f.r = r }
