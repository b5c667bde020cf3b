package cluster_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// These tests run hand-written nodes, whose traffic is known exactly, so
// the harness's own accounting — credit counting, the crashed-node drain,
// the timeout path — can be pinned to exact counts. The nodes go in
// through Options.Launch → RunNode and send core.AvgPayload, which the
// wire codec carries; the spec only frames the run (N, crash plan,
// oracles).
func runCustom(t *testing.T, nodes []sim.Node, timeout time.Duration, crashes ...scenario.CrashEvent) *cluster.Result {
	t.Helper()
	spec := scenario.Spec{
		Protocol: core.NameAverage, N: len(nodes), F: len(crashes), D: 1, Delta: 1, Seed: 1,
		Schedule: scenario.ScheduleSpec{Kind: scenario.SchedEvery},
		Delay:    scenario.DelaySpec{Kind: scenario.DelayFixed, Value: 1},
		Crashes:  crashes,
	}
	launch := func(cfg cluster.NodeConfig, errs chan<- error) {
		go func() {
			if _, err := cluster.RunNode(cfg, nodes[cfg.ID]); err != nil {
				errs <- err
			}
		}()
	}
	res, err := cluster.Run(context.Background(), spec, cluster.Options{
		StepEvery: 200 * time.Microsecond,
		Heartbeat: 10 * time.Millisecond,
		Timeout:   timeout,
		Launch:    launch,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != len(nodes) {
		t.Fatalf("%d node reports, want %d", len(res.Reports), len(nodes))
	}
	return res
}

var ping = core.AvgPayload{S: 1, W: 1}

// floodNode sends one message per step to target for `steps` steps, then
// quiesces, keeping a crashed receiver's drain loop busy.
type floodNode struct {
	id, target sim.ProcID
	steps      int
}

func (f *floodNode) ID() sim.ProcID { return f.id }
func (f *floodNode) Step(_ sim.Time, _ []sim.Message, out *sim.Outbox) {
	if f.steps > 0 {
		f.steps--
		out.Send(f.target, ping)
	}
}
func (f *floodNode) Quiescent() bool { return f.steps == 0 }

// idleNode never sends; it is always or never quiescent.
type idleNode struct {
	id    sim.ProcID
	quiet bool
}

func (n *idleNode) ID() sim.ProcID                            { return n.id }
func (n *idleNode) Step(sim.Time, []sim.Message, *sim.Outbox) {}
func (n *idleNode) Quiescent() bool                           { return n.quiet }

// A node that crashes mid-flood keeps draining its inbox, so the credit
// count still closes: every send is received or drained.
func TestLiveCrashedProcessDrains(t *testing.T) {
	nodes := []sim.Node{&floodNode{id: 0, target: 1, steps: 40}, &idleNode{id: 1, quiet: true}}
	res := runCustom(t, nodes, 20*time.Second, scenario.CrashEvent{At: 1, Proc: 1})
	if res.TimedOut {
		t.Fatalf("did not quiesce: sent=%d received=%d drained=%d", res.TotalSent, res.TotalReceived, res.TotalDrained)
	}
	for _, rp := range res.Reports {
		if rp.Crashed != (rp.ID == 1) {
			t.Errorf("node %d crashed=%v against the plan", rp.ID, rp.Crashed)
		}
		if rp.ID == 1 && rp.Drained == 0 {
			t.Error("crashed node drained nothing")
		}
	}
	if res.TotalSent != 40 || res.TotalSent != res.TotalReceived+res.TotalDrained {
		t.Errorf("sent=%d (flood sends 40), received=%d, drained=%d", res.TotalSent, res.TotalReceived, res.TotalDrained)
	}
	for _, name := range []string{cluster.LiveOracleCreditBalance, cluster.LiveOracleCrashBudget, cluster.LiveOraclePostCrash} {
		if v := verdictFor(t, res, name); !v.OK {
			t.Errorf("oracle %s: %s", name, v.Detail)
		}
	}
}

// pongNode replies to every delivery until it has received `want`
// messages; node 0 serves. Total traffic is exactly 2·want+1 messages, so
// the count comes up short if credit counting ever declares quiescence
// while a message is in flight (the reply it would trigger goes missing).
type pongNode struct {
	id, peer  sim.ProcID
	want, got int
	started   bool
}

func (p *pongNode) ID() sim.ProcID { return p.id }
func (p *pongNode) Step(_ sim.Time, inbox []sim.Message, out *sim.Outbox) {
	if p.id == 0 && !p.started {
		p.started = true
		out.Send(p.peer, ping)
	}
	for range inbox {
		if p.got++; p.got <= p.want {
			out.Send(p.peer, ping)
		}
	}
}
func (p *pongNode) Quiescent() bool { return p.id != 0 || p.started }

func TestLiveCreditCountingExact(t *testing.T) {
	const want = 40
	res := runCustom(t, []sim.Node{&pongNode{id: 0, peer: 1, want: want}, &pongNode{id: 1, peer: 0, want: want}}, 20*time.Second)
	if exp := int64(2*want + 1); res.TimedOut || res.TotalSent != exp || res.TotalReceived != exp {
		t.Fatalf("timed out=%v sent=%d received=%d, want %d each (premature quiescence loses replies)",
			res.TimedOut, res.TotalSent, res.TotalReceived, exp)
	}
	if v := verdictFor(t, res, cluster.LiveOracleCreditBalance); !v.OK {
		t.Fatal(v.Detail)
	}
}

// A cluster that never quiesces trips the timeout cleanly: the run is
// flagged, and every node still drains and reports.
func TestLiveTimeout(t *testing.T) {
	start := time.Now()
	res := runCustom(t, []sim.Node{&idleNode{id: 0}, &idleNode{id: 1}}, 200*time.Millisecond)
	if !res.TimedOut {
		t.Fatal("restless cluster reported quiescence")
	}
	if wall := time.Since(start); wall > 10*time.Second {
		t.Fatalf("timed-out run took %v to wind down", wall)
	}
}

// RunNode rejects a nil node and a node whose ID disagrees with its
// config, naming the ID rather than dumping the node's state.
func TestNewClusterValidation(t *testing.T) {
	cfg := cluster.NodeConfig{ID: 0, N: 2, RegistryAddr: "127.0.0.1:1"}
	if _, err := cluster.RunNode(cfg, nil); err == nil {
		t.Fatal("nil node accepted")
	}
	nodes, err := core.NewNodes(core.SEARS{}, core.Params{N: 2, NoPool: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cluster.RunNode(cfg, nodes[1])
	if err == nil || !strings.Contains(err.Error(), "ID 1") || len(err.Error()) > 80 {
		t.Fatalf("mismatched ID: want a short error naming ID 1, got %v", err)
	}
}
