package core

import (
	"math"
	"testing"

	"repro/internal/adversary"
	"repro/internal/sim"
)

// runGossip builds nodes, world and adversary for a protocol and runs it.
func runGossip(t *testing.T, proto Protocol, p Params, cfg sim.Config, preset string) sim.Result {
	t.Helper()
	res, err := tryGossipRun(proto, p, cfg, preset)
	if err != nil {
		t.Fatalf("%s under %s (n=%d f=%d d=%d δ=%d seed=%d): %v",
			proto.Name(), preset, cfg.N, cfg.F, cfg.D, cfg.Delta, cfg.Seed, err)
	}
	return res
}

func tryGossipRun(proto Protocol, p Params, cfg sim.Config, preset string) (sim.Result, error) {
	p.N, p.F = cfg.N, cfg.F
	nodes, err := NewNodes(proto, p, cfg.Seed)
	if err != nil {
		return sim.Result{}, err
	}
	adv, err := adversary.ByName(preset, cfg)
	if err != nil {
		return sim.Result{}, err
	}
	w, err := sim.NewWorld(cfg, nodes, adv)
	if err != nil {
		return sim.Result{}, err
	}
	return w.Run(proto.Evaluator(p.WithDefaults()))
}

func TestTrivialGossipBenign(t *testing.T) {
	cfg := sim.Config{N: 32, F: 0, D: 1, Delta: 1, Seed: 1}
	res := runGossip(t, Trivial{}, Params{}, cfg, adversary.PresetBenign)
	if want := int64(32 * 31); res.Messages != want {
		t.Fatalf("messages = %d, want %d", res.Messages, want)
	}
	if res.TimeComplexity > 2 {
		t.Fatalf("time = %d, want <= 2 (= d+δ)", res.TimeComplexity)
	}
}

func TestTrivialGossipWithCrashesAndDelays(t *testing.T) {
	for _, preset := range adversary.Presets() {
		for seed := int64(0); seed < 3; seed++ {
			cfg := sim.Config{N: 48, F: 15, D: 4, Delta: 3, Seed: seed}
			res := runGossip(t, Trivial{}, Params{}, cfg, preset)
			if !res.Completed {
				t.Fatalf("preset %s seed %d: not completed", preset, seed)
			}
		}
	}
}

func TestEARSCompletesAllPresets(t *testing.T) {
	for _, preset := range adversary.Presets() {
		preset := preset
		t.Run(preset, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				cfg := sim.Config{N: 64, F: 21, D: 2, Delta: 2, Seed: seed}
				res := runGossip(t, EARS{}, Params{}, cfg, preset)
				if !res.Completed {
					t.Fatalf("seed %d: %+v", seed, res)
				}
			}
		})
	}
}

func TestEARSHalfFailures(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		cfg := sim.Config{N: 64, F: 31, D: 3, Delta: 2, Seed: seed}
		runGossip(t, EARS{}, Params{}, cfg, adversary.PresetCrashStorm)
	}
}

func TestEARSNoFailuresFastPath(t *testing.T) {
	cfg := sim.Config{N: 128, F: 0, D: 1, Delta: 1, Seed: 9}
	res := runGossip(t, EARS{}, Params{}, cfg, adversary.PresetBenign)
	// Sanity: epidemic gossip should need far fewer than n² messages.
	n2 := int64(cfg.N) * int64(cfg.N)
	if res.Messages >= n2 {
		t.Fatalf("ears used %d messages, not better than trivial %d", res.Messages, n2)
	}
}

func TestEARSAdaptiveCrashOnFirstSend(t *testing.T) {
	// Adaptive crash timing: kill the first F processes that ever send.
	// ears must still complete for the survivors.
	cfg := sim.Config{N: 40, F: 10, D: 2, Delta: 1, Seed: 3}
	p := Params{N: cfg.N, F: cfg.F}
	nodes, err := NewNodes(EARS{}, p, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	adv := adversary.Compose(nil, nil, adversary.NewCrashOnFirstSend(cfg.F))
	w, err := sim.NewWorld(cfg, nodes, adv)
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(EARS{}.Evaluator(p))
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != cfg.F {
		t.Fatalf("crashes = %d, want %d", res.Crashes, cfg.F)
	}
}

func TestSEARSCompletesAllPresets(t *testing.T) {
	for _, preset := range adversary.Presets() {
		preset := preset
		t.Run(preset, func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				cfg := sim.Config{N: 64, F: 21, D: 2, Delta: 2, Seed: seed}
				res := runGossip(t, SEARS{}, Params{Epsilon: 0.5}, cfg, preset)
				if !res.Completed {
					t.Fatalf("seed %d: %+v", seed, res)
				}
			}
		})
	}
}

func TestSEARSFasterThanEARS(t *testing.T) {
	// Theorem 7: sears is constant-time w.r.t. n; ears pays log²n. At a
	// fixed n the measured completion time of sears should be well below
	// ears under the same adversary.
	cfg := sim.Config{N: 128, F: 32, D: 2, Delta: 2, Seed: 5}
	rEars := runGossip(t, EARS{}, Params{}, cfg, adversary.PresetStandard)
	rSears := runGossip(t, SEARS{}, Params{Epsilon: 0.5}, cfg, adversary.PresetStandard)
	if rSears.TimeComplexity >= rEars.TimeComplexity {
		t.Fatalf("sears time %d not below ears time %d", rSears.TimeComplexity, rEars.TimeComplexity)
	}
	if rSears.Messages <= rEars.Messages {
		t.Fatalf("sears messages %d unexpectedly below ears %d (spamming should cost more)",
			rSears.Messages, rEars.Messages)
	}
}

func TestTEARSMajorityAllPresets(t *testing.T) {
	for _, preset := range adversary.Presets() {
		preset := preset
		t.Run(preset, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				cfg := sim.Config{N: 128, F: 63, D: 2, Delta: 2, Seed: seed}
				res := runGossip(t, TEARS{}, Params{}, cfg, preset)
				if !res.Completed {
					t.Fatalf("seed %d: %+v", seed, res)
				}
			}
		})
	}
}

func TestTEARSConstantTime(t *testing.T) {
	// Theorem 12: all first-level messages arrive by d+δ, second-level
	// sent by 2d+δ, delivered by 2d+2δ. Allow scheduling slack of +δ.
	cfg := sim.Config{N: 256, F: 0, D: 3, Delta: 2, Seed: 2}
	res := runGossip(t, TEARS{}, Params{}, cfg, adversary.PresetMaxDelay)
	bound := 2*cfg.D + 3*cfg.Delta
	if res.TimeComplexity > bound {
		t.Fatalf("tears time %d exceeds 2d+3δ = %d", res.TimeComplexity, bound)
	}
}

func TestTEARSSubquadraticGrowth(t *testing.T) {
	// At simulable n the absolute bound n^{7/4}log²n exceeds n², so the
	// testable claim is the growth exponent: messages must scale with an
	// exponent strictly below trivial gossip's 2.
	if testing.Short() {
		t.Skip("growth measurement in -short mode")
	}
	measure := func(n int) float64 {
		var total float64
		const seeds = 3
		for seed := int64(0); seed < seeds; seed++ {
			cfg := sim.Config{N: n, F: 0, D: 2, Delta: 1, Seed: seed}
			res := runGossip(t, TEARS{}, Params{}, cfg, adversary.PresetStandard)
			total += float64(res.Messages)
		}
		return total / seeds
	}
	m1, m2 := measure(128), measure(512)
	slope := math.Log(m2/m1) / math.Log(512.0/128.0)
	if slope >= 1.95 {
		t.Fatalf("tears message growth exponent %.3f not below 2 (m128=%.0f, m512=%.0f)",
			slope, m1, m2)
	}
	t.Logf("tears growth exponent %.3f (paper: 7/4 plus log factors)", slope)
}

// Lemma 8: every process sends either 0 or between a−κ and a+κ messages in
// each local step (audience sizes are binomially concentrated around a).
func TestTEARSLemma8StepSends(t *testing.T) {
	cfg := sim.Config{N: 512, F: 0, D: 2, Delta: 1, Seed: 6}
	p := Params{N: cfg.N, F: cfg.F}.WithDefaults()
	nodes, err := NewNodes(TEARS{}, p, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	adv, _ := adversary.ByName(adversary.PresetStandard, cfg)
	w, err := sim.NewWorld(cfg, nodes, adv)
	if err != nil {
		t.Fatal(err)
	}
	counter := sim.NewStepSendCounter(cfg.N)
	w.SetTracer(counter)
	if _, err := w.Run(TEARS{}.Evaluator(p)); err != nil {
		t.Fatal(err)
	}
	a, kappa := p.tearsA(), p.tearsKappa()
	lo, hi := a-2*kappa, a+2*kappa // Lemma 8 gives a±κ whp; allow 2κ slack
	violations := 0
	for pid := range counter.PerStep {
		for _, sends := range counter.PerStep[pid] {
			if sends == 0 {
				continue
			}
			if sends < lo || sends > hi {
				violations++
			}
		}
	}
	if violations > cfg.N/50 { // Lemma 8 holds w.p. 1−2/n³ per step
		t.Fatalf("%d step-send counts outside [a−2κ, a+2κ] = [%d, %d]", violations, lo, hi)
	}
}

func TestTEARSAudienceConcentration(t *testing.T) {
	p := Params{N: 1024, F: 0}.WithDefaults()
	nodes, err := NewNodes(TEARS{}, p, 7)
	if err != nil {
		t.Fatal(err)
	}
	a := p.tearsA()
	for _, nd := range nodes {
		tn := nd.(*tearsNode)
		s1, s2 := tn.AudienceSizes()
		for _, s := range []int{s1, s2} {
			if s < a/2 || s > 2*a {
				t.Fatalf("audience size %d far from a = %d", s, a)
			}
		}
	}
}

func TestGossipDeterministicReplay(t *testing.T) {
	for _, proto := range []Protocol{Trivial{}, EARS{}, SEARS{}, TEARS{}} {
		cfg := sim.Config{N: 48, F: 12, D: 3, Delta: 2, Seed: 11}
		r1, err1 := tryGossipRun(proto, Params{}, cfg, adversary.PresetStandard)
		r2, err2 := tryGossipRun(proto, Params{}, cfg, adversary.PresetStandard)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v / %v", proto.Name(), err1, err2)
		}
		if r1 != r2 {
			t.Fatalf("%s replay diverged: %+v vs %+v", proto.Name(), r1, r2)
		}
	}
}

func TestProtocolByName(t *testing.T) {
	for _, name := range Names() {
		proto, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if proto.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, proto.Name())
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("bogus protocol accepted")
	}
}

func TestNewNodesValidatesParams(t *testing.T) {
	if _, err := NewNodes(EARS{}, Params{N: 0}, 1); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := NewNodes(EARS{}, Params{N: 4, F: 4}, 1); err == nil {
		t.Fatal("F=N accepted")
	}
	if _, err := NewNodes(SEARS{}, Params{N: 4, Epsilon: 1.5}, 1); err == nil {
		t.Fatal("ε=1.5 accepted")
	}
}

func TestEARSWakesUpOnLateRumor(t *testing.T) {
	// A process isolated by the scheduler until after everyone else slept
	// must reawaken the system when its rumor finally spreads. We starve
	// process 0 with a subset schedule, then include it.
	cfg := sim.Config{N: 16, F: 0, D: 1, Delta: 1, Seed: 13, MaxSteps: 30000}
	p := Params{N: cfg.N, F: cfg.F}
	nodes, err := NewNodes(EARS{}, p, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	rest := make([]sim.ProcID, 0, cfg.N-1)
	for i := 1; i < cfg.N; i++ {
		rest = append(rest, sim.ProcID(i))
	}
	sched := &phasedSchedule{first: rest, switchAt: 2000, n: cfg.N}
	adv := adversary.Compose(sched, nil, nil)
	w, err := sim.NewWorld(cfg, nodes, adv)
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(EARS{}.Evaluator(p))
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedAt < 2000 {
		t.Fatalf("completed at %d, but process 0 was starved until 2000", res.CompletedAt)
	}
}

// phasedSchedule schedules `first` until switchAt, then everyone. It
// violates δ for the starved process on purpose (asynchrony in action).
type phasedSchedule struct {
	first    []sim.ProcID
	switchAt sim.Time
	n        int
}

func (s *phasedSchedule) Append(t sim.Time, _ sim.View, buf []sim.ProcID) []sim.ProcID {
	if t < s.switchAt {
		return append(buf, s.first...)
	}
	for i := 0; i < s.n; i++ {
		buf = append(buf, sim.ProcID(i))
	}
	return buf
}

func TestEARSInformedListMonotone(t *testing.T) {
	// White-box: after a run, every node's informed list must be covered
	// (L(p) = ∅) and its pair count must not exceed n².
	cfg := sim.Config{N: 24, F: 0, D: 1, Delta: 1, Seed: 17}
	p := Params{N: cfg.N, F: cfg.F}
	nodes, err := NewNodes(EARS{}, p, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	adv := adversary.Benign()
	w, err := sim.NewWorld(cfg, nodes, adv)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(EARS{}.Evaluator(p)); err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes {
		en := nd.(*earsNode)
		if !en.Asleep() {
			t.Fatalf("node %d not asleep after quiet world", en.ID())
		}
		if got, max := en.InformedPairs(), cfg.N*cfg.N; got > max {
			t.Fatalf("informed pairs %d > n² = %d", got, max)
		}
	}
}

func TestClonedNodeIndependence(t *testing.T) {
	p := Params{N: 8, F: 0}.WithDefaults()
	nodes, err := NewNodes(EARS{}, p, 23)
	if err != nil {
		t.Fatal(err)
	}
	orig := nodes[0].(*earsNode)
	clone := orig.CloneNode().(*earsNode)
	// Stepping the clone must not affect the original.
	var out sim.Outbox
	payload := &GossipPayload{Rumors: NewRumors(8, false)}
	payload.Rumors.Add(5, NoValue)
	msg := sim.Message{From: 5, To: 0, Payload: payload}
	cloneBefore := orig.RumorSet().Count()
	clone.Step(1, []sim.Message{msg}, &out)
	if orig.RumorSet().Count() != cloneBefore {
		t.Fatal("stepping clone mutated original's rumor set")
	}
	if !clone.RumorSet().Test(5) {
		t.Fatal("clone did not absorb rumor")
	}
}
