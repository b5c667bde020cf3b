package consensus

import (
	"testing"
	"testing/quick"

	"repro/internal/adversary"
	"repro/internal/bitset"
	"repro/internal/sim"
)

// runConsensus executes one consensus run and returns the result.
func runConsensus(t *testing.T, p Params, inputs []uint8, cfg sim.Config, preset string) sim.Result {
	t.Helper()
	res, err := tryConsensusRun(p, inputs, cfg, preset)
	if err != nil {
		t.Fatalf("%s/%s (n=%d f=%d d=%d δ=%d seed=%d): %v",
			p.Transport, preset, cfg.N, cfg.F, cfg.D, cfg.Delta, cfg.Seed, err)
	}
	return res
}

func tryConsensusRun(p Params, inputs []uint8, cfg sim.Config, preset string) (sim.Result, error) {
	p.N, p.F = cfg.N, cfg.F
	nodes, err := NewNodes(p, inputs, cfg.Seed)
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
	return w.Run(Evaluator{Inputs: inputs})
}

func TestDirectUnanimousDecidesRoundOne(t *testing.T) {
	for _, v := range []uint8{0, 1} {
		cfg := sim.Config{N: 16, F: 0, D: 1, Delta: 1, Seed: 1}
		inputs := UniformInputs(16, v)
		res := runConsensus(t, Params{Transport: TransportDirect}, inputs, cfg, adversary.PresetBenign)
		if !res.Completed {
			t.Fatalf("v=%d: %+v", v, res)
		}
	}
}

func TestDirectMixedInputsAllPresets(t *testing.T) {
	for _, preset := range adversary.Presets() {
		preset := preset
		t.Run(preset, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				cfg := sim.Config{N: 32, F: 15, D: 3, Delta: 2, Seed: seed}
				inputs := RandomInputs(32, seed)
				res := runConsensus(t, Params{Transport: TransportDirect}, inputs, cfg, preset)
				if !res.Completed {
					t.Fatalf("seed %d: %+v", seed, res)
				}
			}
		})
	}
}

func TestGossipTransportsAllPresets(t *testing.T) {
	for _, kind := range []TransportKind{TransportEARS, TransportSEARS, TransportTEARS} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			for _, preset := range adversary.Presets() {
				for seed := int64(0); seed < 2; seed++ {
					cfg := sim.Config{N: 48, F: 23, D: 2, Delta: 2, Seed: seed}
					inputs := RandomInputs(48, seed+50)
					res := runConsensus(t, Params{Transport: kind}, inputs, cfg, preset)
					if !res.Completed {
						t.Fatalf("%s seed %d: %+v", preset, seed, res)
					}
				}
			}
		})
	}
}

func TestValidityUnanimousUnderCrashes(t *testing.T) {
	// With unanimous input v, the decision must be v — no coin can
	// overturn it even with maximal minority failures.
	for _, kind := range TransportKinds() {
		cfg := sim.Config{N: 24, F: 11, D: 2, Delta: 1, Seed: 9}
		inputs := UniformInputs(24, 1)
		p := Params{Transport: kind}
		p.N, p.F = cfg.N, cfg.F
		nodes, err := NewNodes(p, inputs, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		adv, _ := adversary.ByName(adversary.PresetCrashStorm, cfg)
		w, err := sim.NewWorld(cfg, nodes, adv)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Run(Evaluator{Inputs: inputs}); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for _, nd := range nodes {
			if decided, v, _ := nd.(*Node).Decided(); decided && v != 1 {
				t.Fatalf("%s: node decided %d on unanimous input 1", kind, v)
			}
		}
	}
}

func TestCommonCorePropertyDirect(t *testing.T) {
	// After any run, the outputs of the first get-core must share a common
	// core of at least ⌊n/2⌋+1 votes (the get-core guarantee the agreement
	// proof rests on).
	cfg := sim.Config{N: 32, F: 15, D: 3, Delta: 2, Seed: 4}
	checkCommonCore(t, Params{Transport: TransportDirect}, cfg)
}

func TestCommonCorePropertyEARS(t *testing.T) {
	cfg := sim.Config{N: 32, F: 15, D: 2, Delta: 2, Seed: 5}
	checkCommonCore(t, Params{Transport: TransportEARS}, cfg)
}

func TestCommonCorePropertyTEARS(t *testing.T) {
	cfg := sim.Config{N: 64, F: 31, D: 2, Delta: 2, Seed: 6}
	checkCommonCore(t, Params{Transport: TransportTEARS}, cfg)
}

func checkCommonCore(t *testing.T, p Params, cfg sim.Config) {
	t.Helper()
	p.N, p.F = cfg.N, cfg.F
	inputs := RandomInputs(cfg.N, cfg.Seed+31)
	nodes, err := NewNodes(p, inputs, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	adv, _ := adversary.ByName(adversary.PresetStandard, cfg)
	w, err := sim.NewWorld(cfg, nodes, adv)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(Evaluator{Inputs: inputs}); err != nil {
		t.Fatal(err)
	}
	maj := cfg.N/2 + 1
	var common *bitset.Set
	for i, nd := range nodes {
		cn := nd.(*Node)
		if !w.Alive(sim.ProcID(i)) {
			continue
		}
		outs := cn.Outputs()
		if len(outs) == 0 {
			t.Fatalf("correct node %d completed no get-core", i)
		}
		if got := outs[0].Set.Count(); got < maj {
			t.Fatalf("node %d's first get-core output has %d votes, need ≥ %d", i, got, maj)
		}
		if common == nil {
			common = outs[0].Set.Clone()
		} else {
			common.IntersectWith(outs[0].Set)
		}
	}
	if common == nil {
		t.Fatal("no correct nodes")
	}
	if got := common.Count(); got < maj {
		t.Fatalf("common core size %d below majority %d", got, maj)
	}
}

func TestLocalCoinSmallN(t *testing.T) {
	// Ben-Or ablation: local coins still terminate for small n (expected
	// exponential in the worst case, fast in practice at n=8).
	for seed := int64(0); seed < 5; seed++ {
		cfg := sim.Config{N: 8, F: 3, D: 1, Delta: 1, Seed: seed}
		inputs := RandomInputs(8, seed)
		p := Params{Transport: TransportDirect, Coin: NewLocalCoin(seed)}
		res := runConsensus(t, p, inputs, cfg, adversary.PresetStandard)
		if !res.Completed {
			t.Fatalf("seed %d: %+v", seed, res)
		}
	}
}

func TestSingleProcessDecidesAlone(t *testing.T) {
	cfg := sim.Config{N: 1, F: 0, D: 1, Delta: 1, Seed: 1}
	res := runConsensus(t, Params{Transport: TransportDirect}, []uint8{1}, cfg, adversary.PresetBenign)
	if !res.Completed {
		t.Fatalf("%+v", res)
	}
}

func TestParamsValidation(t *testing.T) {
	if _, err := NewNodes(Params{N: 4, F: 2}, UniformInputs(4, 0), 1); err == nil {
		t.Fatal("F = N/2 accepted (need strict minority)")
	}
	if _, err := NewNodes(Params{N: 4, F: 1}, UniformInputs(3, 0), 1); err == nil {
		t.Fatal("wrong input count accepted")
	}
	if _, err := NewNodes(Params{N: 4, F: 1, Transport: "bogus"}, UniformInputs(4, 0), 1); err == nil {
		t.Fatal("bogus transport accepted")
	}
	if _, err := NewNode(0, 7, Params{N: 4, F: 1}.WithDefaults(), nil, NewCommonCoin(1)); err == nil {
		t.Fatal("non-binary input accepted")
	}
}

func TestDeterministicReplayConsensus(t *testing.T) {
	for _, kind := range TransportKinds() {
		cfg := sim.Config{N: 24, F: 11, D: 2, Delta: 2, Seed: 3}
		inputs := RandomInputs(24, 77)
		r1, e1 := tryConsensusRun(Params{Transport: kind}, inputs, cfg, adversary.PresetStandard)
		r2, e2 := tryConsensusRun(Params{Transport: kind}, inputs, cfg, adversary.PresetStandard)
		if e1 != nil || e2 != nil {
			t.Fatalf("%s: %v / %v", kind, e1, e2)
		}
		if r1 != r2 {
			t.Fatalf("%s: replay diverged", kind)
		}
	}
}

func TestDirectMessageComplexityQuadratic(t *testing.T) {
	// Table 2 row 1: the CR baseline sends Θ(n²) messages. Check the
	// measured count sits within sane constant factors of n².
	cfg := sim.Config{N: 64, F: 0, D: 1, Delta: 1, Seed: 8}
	inputs := RandomInputs(64, 8)
	res := runConsensus(t, Params{Transport: TransportDirect}, inputs, cfg, adversary.PresetBenign)
	n2 := int64(64 * 64)
	if res.Messages < n2 || res.Messages > 40*n2 {
		t.Fatalf("direct consensus messages %d implausible for Θ(n²) = %d", res.Messages, n2)
	}
}

// Property: consensus completes (agreement + validity + termination) for
// random small configurations across transports and presets.
func TestQuickConsensusAlwaysCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep in -short mode")
	}
	presets := adversary.Presets()
	kinds := TransportKinds()
	check := func(nRaw, fRaw, dRaw, deltaRaw, kSel, aSel uint8, seed int64) bool {
		n := 8 + int(nRaw)%40 // 8..47
		f := int(fRaw) % ((n + 1) / 2)
		if 2*f >= n {
			f = (n - 1) / 2
		}
		d := 1 + int(dRaw)%3
		delta := 1 + int(deltaRaw)%3
		kind := kinds[int(kSel)%len(kinds)]
		preset := presets[int(aSel)%len(presets)]
		cfg := sim.Config{N: n, F: f, D: sim.Time(d), Delta: sim.Time(delta), Seed: seed}
		inputs := RandomInputs(n, seed+7)
		res, err := tryConsensusRun(Params{Transport: kind}, inputs, cfg, preset)
		if err != nil {
			t.Logf("FAIL CR-%s/%s n=%d f=%d d=%d δ=%d seed=%d: %v",
				kind, preset, n, f, d, delta, seed, err)
			return false
		}
		return res.Completed
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
