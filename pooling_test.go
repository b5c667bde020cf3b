package repro

// Determinism tests for the pooled simulation kernel: snapshot pooling and
// the mailbox arena recycle memory on the hot path, and these tests pin
// the contract that recycling is invisible — a pooled run is bit-identical
// to an unpooled run, event for event, for every protocol and topology.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	iadv "repro/internal/adversary"
	icore "repro/internal/core"
	isim "repro/internal/sim"
)

// eventTracer records every simulation event in order, so two runs can be
// compared at full fidelity (sends, deliveries, steps, crashes — not just
// the aggregate metrics).
type eventTracer struct {
	events []string
}

func (t *eventTracer) OnSend(m isim.Message) {
	t.events = append(t.events, fmt.Sprintf("send %d->%d @%d ready=%d", m.From, m.To, m.SentAt, m.ReadyAt))
}

func (t *eventTracer) OnDeliver(m isim.Message, at isim.Time) {
	t.events = append(t.events, fmt.Sprintf("recv %d->%d @%d", m.From, m.To, at))
}

func (t *eventTracer) OnStep(p isim.ProcID, at isim.Time) {
	t.events = append(t.events, fmt.Sprintf("step %d @%d", p, at))
}

func (t *eventTracer) OnCrash(p isim.ProcID, at isim.Time) {
	t.events = append(t.events, fmt.Sprintf("crash %d @%d", p, at))
}

// runTraced runs one gossip execution with an event tracer and returns the
// result plus the full event log.
func runTraced(t *testing.T, cfg GossipConfig, pool bool) (*GossipResult, []string) {
	t.Helper()
	proto, err := icore.ByName(cfg.Protocol)
	if err != nil {
		t.Fatal(err)
	}
	p := cfg.Tuning
	p.N, p.F = cfg.N, cfg.F
	p.NoPool = !pool
	nodes, err := icore.NewNodes(proto, p, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	simCfg := isim.Config{
		N: cfg.N, F: cfg.F, D: isim.Time(cfg.D), Delta: isim.Time(cfg.Delta), Seed: cfg.Seed,
	}
	adv, err := iadv.ByName(cfg.Adversary, simCfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := isim.NewWorld(simCfg, nodes, adv)
	if err != nil {
		t.Fatal(err)
	}
	tr := &eventTracer{}
	w.SetTracer(tr)
	res, err := w.Run(proto.Evaluator(p.WithDefaults()))
	if err != nil {
		t.Fatal(err)
	}
	out := &GossipResult{
		Completed: res.Completed,
		TimeSteps: int64(res.TimeComplexity),
		Messages:  res.Messages,
		Bytes:     res.Bytes,
		Crashes:   res.Crashes,
	}
	for q := 0; q < cfg.N; q++ {
		if h, ok := nodes[q].(icore.RumorHolder); ok {
			out.Rumors = append(out.Rumors, h.RumorSet().Elements())
		}
	}
	return out, tr.events
}

// TestPooledKernelMatchesUnpooled is the pooled-kernel determinism
// regression: for every asynchronous protocol, a pooled run must produce
// the same result AND the same event-for-event execution as an unpooled
// run. Any recycling bug that lets a released buffer leak into live state
// changes rumor sets or send counts and fails here.
func TestPooledKernelMatchesUnpooled(t *testing.T) {
	for _, proto := range []string{ProtoTrivial, ProtoEARS, ProtoSEARS, ProtoTEARS, "naive"} {
		for _, seed := range []int64{1, 7, 42} {
			cfg := GossipConfig{
				Protocol: proto, N: 48, F: 12, D: 2, Delta: 2,
				Adversary: AdversaryStandard, Seed: seed,
			}
			unpooled, evUnpooled := runTraced(t, cfg, false)
			pooled, evPooled := runTraced(t, cfg, true)
			if !reflect.DeepEqual(unpooled, pooled) {
				t.Fatalf("%s seed %d: pooled result differs:\nunpooled: %+v\npooled:   %+v",
					proto, seed, unpooled, pooled)
			}
			if len(evUnpooled) != len(evPooled) {
				t.Fatalf("%s seed %d: event count %d (unpooled) vs %d (pooled)",
					proto, seed, len(evUnpooled), len(evPooled))
			}
			for i := range evUnpooled {
				if evUnpooled[i] != evPooled[i] {
					t.Fatalf("%s seed %d: event %d differs: %q vs %q",
						proto, seed, i, evUnpooled[i], evPooled[i])
				}
			}
		}
	}
}

// TestPooledRunsAPIEquivalence checks the public entry point: Run
// with an explicit shared pool (as the benchmarks use), with the default
// per-run pool, and with pooling disabled must all agree — including
// across repeated reuse of one pool, which exercises recycled buffers.
func TestPooledRunsAPIEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, proto := range []string{ProtoEARS, ProtoTEARS, ProtoSyncEpidemic} {
		pool := icore.NewPool(40)
		for _, seed := range []int64{3, 9} {
			base := GossipConfig{Protocol: proto, N: 40, F: 10, D: 2, Delta: 2, Seed: seed}

			defaultPool, err := Run(ctx, GossipSpec(base))
			if err != nil {
				t.Fatalf("%s: %v", proto, err)
			}

			noPool := base
			noPool.Tuning.NoPool = true
			unpooled, err := Run(ctx, GossipSpec(noPool))
			if err != nil {
				t.Fatalf("%s: %v", proto, err)
			}

			shared := base
			shared.Tuning.Pool = pool
			// Two sequential runs on the same pool: the second consumes
			// recycled storage from the first.
			if _, err := Run(ctx, GossipSpec(shared)); err != nil {
				t.Fatalf("%s: %v", proto, err)
			}
			reused, err := Run(ctx, GossipSpec(shared))
			if err != nil {
				t.Fatalf("%s: %v", proto, err)
			}

			if !reflect.DeepEqual(defaultPool, unpooled) {
				t.Errorf("%s seed %d: default pool differs from unpooled", proto, seed)
			}
			if !reflect.DeepEqual(defaultPool, reused) {
				t.Errorf("%s seed %d: reused shared pool differs from fresh pool", proto, seed)
			}
		}
	}
}
