package cluster_test

import (
	"context"
	"encoding/json"
	"net"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// runLive replays spec in-process with tight pacing and requires every
// live oracle to accept. These are the harness's end-to-end tests: real
// TCP listeners on loopback, real goroutine nodes, the binary wire codec,
// the registry control plane and the quiescence detector all in the loop.
func runLive(t *testing.T, spec scenario.Spec) *cluster.Result {
	t.Helper()
	return runLiveWith(t, spec, nil)
}

// runLiveWith is runLive with a custom launcher (nil: the in-process one).
func runLiveWith(t *testing.T, spec scenario.Spec, launch func(cluster.NodeConfig, chan<- error)) *cluster.Result {
	t.Helper()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := cluster.Run(ctx, spec, cluster.Options{
		StepEvery: 200 * time.Microsecond,
		Heartbeat: 10 * time.Millisecond,
		Timeout:   45 * time.Second,
		Launch:    launch,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut {
		t.Fatalf("cluster did not quiesce: sent=%d received=%d drained=%d",
			res.TotalSent, res.TotalReceived, res.TotalDrained)
	}
	for _, v := range res.Verdicts {
		if !v.OK {
			t.Errorf("oracle %s: %s", v.Oracle, v.Detail)
		}
	}
	if !res.Passed {
		t.Fatal("run not passed")
	}
	return res
}

func liveSpec(proto string, n, f int) scenario.Spec {
	spec := scenario.Spec{
		Protocol: proto, N: n, F: f, D: 2, Delta: 2, Seed: 42,
		Schedule:       scenario.ScheduleSpec{Kind: scenario.SchedEvery},
		Delay:          scenario.DelaySpec{Kind: scenario.DelayFixed, Value: 1},
		Majority:       proto == core.NameTEARS,
		ExpectComplete: !(scenario.IsAveragingProtocol(proto) && f > 0),
	}
	for i := 0; i < f; i++ {
		spec.Crashes = append(spec.Crashes, scenario.CrashEvent{At: int64(10 + 7*i), Proc: n - 1 - i})
	}
	return spec
}

func TestLiveEARSWithCrashes(t *testing.T) {
	res := runLive(t, liveSpec(core.NameEARS, 10, 2))
	crashed := 0
	for _, rp := range res.Reports {
		if rp.Crashed {
			crashed++
		}
	}
	if crashed != 2 {
		t.Errorf("%d nodes crashed, plan had 2", crashed)
	}
	if !res.Completed {
		t.Error("run not marked completed")
	}
	if res.TotalSent == 0 || res.Latency.Count == 0 {
		t.Errorf("empty run: sent=%d latency samples=%d", res.TotalSent, res.Latency.Count)
	}
}

// crashedIDs lists the nodes that report a crash.
func crashedIDs(res *cluster.Result) map[int]bool {
	ids := map[int]bool{}
	for _, rp := range res.Reports {
		if rp.Crashed {
			ids[rp.ID] = true
		}
	}
	return ids
}

func TestLiveEARSGossip(t *testing.T) {
	res := runLive(t, liveSpec(core.NameEARS, 24, 0))
	if !res.Completed || res.TotalSent == 0 {
		t.Errorf("completed=%v sent=%d", res.Completed, res.TotalSent)
	}
}

// At n=24 with three crashes, exactly the planned nodes crash and EARS
// still completes around them.
func TestLiveEARSWithThreeCrashes(t *testing.T) {
	res := runLive(t, liveSpec(core.NameEARS, 24, 3))
	if got := crashedIDs(res); len(got) != 3 || !got[21] || !got[22] || !got[23] {
		t.Errorf("crashed = %v, plan had 21, 22, 23", got)
	}
	if !res.Completed {
		t.Error("run not marked completed")
	}
}

// After an EARS run with a crash, every correct node holds every correct
// node's rumor: the simulator's property, checked on the reported sets
// under real asynchrony.
func TestLiveRumorSetsConsistent(t *testing.T) {
	const n = 20
	res := runLive(t, liveSpec(core.NameEARS, n, 1))
	crashed := crashedIDs(res)
	for _, rp := range res.Reports {
		if crashed[rp.ID] {
			continue
		}
		if !rp.HasRumors {
			t.Fatalf("node %d reported no rumor set", rp.ID)
		}
		held := map[int]bool{}
		for _, r := range rp.Rumors {
			held[r] = true
		}
		for q := 0; q < n; q++ {
			if !crashed[q] && !held[q] {
				t.Errorf("node %d missing rumor %d", rp.ID, q)
			}
		}
	}
}

// Every credit comes home when crashes hit a real protocol run: each send
// is received or drained.
func TestLiveCreditBalanceWithCrashes(t *testing.T) {
	res := runLive(t, liveSpec(core.NameEARS, 16, 3))
	if res.TotalSent == 0 || res.TotalSent != res.TotalReceived+res.TotalDrained {
		t.Errorf("sent=%d received=%d drained=%d", res.TotalSent, res.TotalReceived, res.TotalDrained)
	}
	if v := verdictFor(t, res, cluster.LiveOracleCreditBalance); !v.OK {
		t.Error(v.Detail)
	}
	if !res.Completed {
		t.Error("run not marked completed")
	}
}

// slowLink holds every delivery for 1–3 ms of wall clock before the
// wrapped node sees it, adding long, uneven link delays that loopback
// does not supply. It forwards the rumor state the oracles read.
type slowLink struct {
	sim.Node
	core.RumorHolder
	r    *rng.RNG
	held []sim.Message // ReadyAt: release time
	due  []sim.Message
}

func (s *slowLink) Step(now sim.Time, inbox []sim.Message, out *sim.Outbox) {
	for _, m := range inbox {
		m.ReadyAt = now + sim.Time(time.Millisecond) + sim.Time(s.r.Intn(int(2*time.Millisecond)))
		s.held = append(s.held, m)
	}
	s.due = s.due[:0]
	kept := s.held[:0]
	for _, m := range s.held {
		if m.ReadyAt <= now {
			s.due = append(s.due, m)
		} else {
			kept = append(kept, m)
		}
	}
	s.held = kept
	s.Node.Step(now, s.due, out)
}

func (s *slowLink) Quiescent() bool { return len(s.held) == 0 && s.Node.Quiescent() }

func TestLiveSEARSUnderSlowLinks(t *testing.T) {
	spec := liveSpec(core.NameSEARS, 24, 0)
	nodes, err := core.NewNodes(core.SEARS{}, core.Params{N: spec.N, NoPool: true}, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	launch := func(cfg cluster.NodeConfig, errs chan<- error) {
		nd := nodes[cfg.ID]
		slow := &slowLink{Node: nd, RumorHolder: nd.(core.RumorHolder), r: rng.New(int64(cfg.ID))}
		go func() {
			if _, err := cluster.RunNode(cfg, slow); err != nil {
				errs <- err
			}
		}()
	}
	if res := runLiveWith(t, spec, launch); !res.Completed {
		t.Error("sears run did not complete under slow links")
	}
}

// Trivial gossip sends to every peer exactly once, so the credit count
// must close on exactly n·(n−1) messages.
func TestLiveTrivialGossip(t *testing.T) {
	const n = 16
	res := runLive(t, liveSpec(core.NameTrivial, n, 0))
	if res.TotalSent != n*(n-1) || res.TotalReceived != n*(n-1) {
		t.Errorf("sent=%d received=%d, want %d each", res.TotalSent, res.TotalReceived, n*(n-1))
	}
}

func TestLiveTEARSMajority(t *testing.T) {
	res := runLive(t, liveSpec(core.NameTEARS, 24, 3))
	if !res.Completed {
		t.Error("tears run did not reach majority on every correct node")
	}
}

func TestLivePullSpread(t *testing.T) {
	res := runLive(t, liveSpec(core.NamePull, 8, 0))
	for _, rp := range res.Reports {
		if !rp.HasInformed || !rp.Informed {
			t.Errorf("node %d uninformed after a pull run", rp.ID)
		}
	}
}

func TestLiveAveraging(t *testing.T) {
	res := runLive(t, liveSpec(core.NameAverage, 8, 0))
	if !res.Completed {
		t.Error("crash-free averaging run did not converge on the mean")
	}
}

func TestLiveRingTopology(t *testing.T) {
	spec := liveSpec(core.NameSEARS, 8, 0)
	spec.Topology = "ring"
	res := runLive(t, spec)
	if res.TotalOffEdge != 0 {
		t.Errorf("%d off-edge sends on a ring", res.TotalOffEdge)
	}
}

// Synchronous baselines have no wire codec; the driver must reject them
// up front rather than hang a cluster.
func TestLiveRejectsSyncProtocols(t *testing.T) {
	spec := liveSpec("sync-gossip", 4, 0)
	spec.ExpectComplete = false
	if err := spec.Validate(); err != nil {
		t.Skipf("sync-gossip not a valid spec protocol here: %v", err)
	}
	if _, err := cluster.Run(context.Background(), spec, cluster.Options{}); err == nil {
		t.Fatal("driver accepted a simulator-only protocol")
	}
}

// control is a bare-TCP control-plane client for registry tests.
type control struct {
	t    *testing.T
	conn net.Conn
}

func dialRegistry(t *testing.T, addr string) *control {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &control{t: t, conn: conn}
}

func (c *control) roundTrip(kind byte, msg, reply any) {
	c.t.Helper()
	body, err := json.Marshal(msg)
	if err != nil {
		c.t.Fatal(err)
	}
	if err := cluster.WriteFrame(c.conn, kind, body); err != nil {
		c.t.Fatal(err)
	}
	gotKind, gotBody, err := cluster.ReadFrame(c.conn)
	if err != nil {
		c.t.Fatal(err)
	}
	if gotKind != kind+1 {
		c.t.Fatalf("reply kind %#x to request %#x", gotKind, kind)
	}
	if reply != nil {
		if err := json.Unmarshal(gotBody, reply); err != nil {
			c.t.Fatal(err)
		}
	}
}

func TestRegistryControlPlane(t *testing.T) {
	reg, err := cluster.NewRegistry("127.0.0.1:0", 12345)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	c0 := dialRegistry(t, reg.Addr())
	var ok cluster.JoinOKMsg
	c0.roundTrip(cluster.KindJoin, cluster.JoinMsg{ID: 0, Addr: "127.0.0.1:1000"}, &ok)
	if ok.EpochUnixNano != 12345 {
		t.Fatalf("epoch %d, want 12345", ok.EpochUnixNano)
	}
	c1 := dialRegistry(t, reg.Addr())
	c1.roundTrip(cluster.KindJoin, cluster.JoinMsg{ID: 1, Addr: "127.0.0.1:1001"}, &ok)
	if len(ok.Members) != 2 {
		t.Fatalf("second joiner sees %d members, want 2", len(ok.Members))
	}

	var ack cluster.HeartbeatAckMsg
	c0.roundTrip(cluster.KindHeartbeat,
		cluster.HeartbeatMsg{ID: 0, Steps: 3, Sent: 5, Received: 4, Drained: 1, Quiescent: true}, &ack)
	if ack.Directive != cluster.DirectiveRun {
		t.Fatalf("directive %q, want run", ack.Directive)
	}
	c1.roundTrip(cluster.KindHeartbeat,
		cluster.HeartbeatMsg{ID: 1, Steps: 2, Sent: 5, Received: 5, Drained: 0, Quiescent: true}, &ack)

	s := reg.Sweep()
	if s.Joined != 2 || !s.HaveAllHB || !s.AllQuiet {
		t.Fatalf("sweep %+v after two quiescent heartbeats", s)
	}
	if s.Sent != 10 || s.Received != 9 || s.Drained != 1 || s.MinLiveSteps != 2 {
		t.Fatalf("sweep counters %+v", s)
	}

	reg.SetDirective(cluster.DirectiveDrain)
	c0.roundTrip(cluster.KindHeartbeat, cluster.HeartbeatMsg{ID: 0, Quiescent: true}, &ack)
	if ack.Directive != cluster.DirectiveDrain {
		t.Fatalf("directive %q after SetDirective, want drain", ack.Directive)
	}

	c0.roundTrip(cluster.KindReport, cluster.NodeReport{ID: 0, Steps: 3}, &struct{}{})
	if reg.ReportCount() != 1 {
		t.Fatalf("report count %d, want 1", reg.ReportCount())
	}
	c0.roundTrip(cluster.KindLeave, cluster.LeaveMsg{ID: 0}, &struct{}{})
	if s := reg.Sweep(); s.Left != 1 {
		t.Fatalf("sweep %+v after one leave", s)
	}

	// Node 1 stops heartbeating: with a tiny TTL it must show up stale;
	// node 0 left and must not.
	time.Sleep(5 * time.Millisecond)
	if stale := reg.Stale(time.Nanosecond); len(stale) != 1 || stale[0] != 1 {
		t.Fatalf("stale %v, want [1]", stale)
	}
	if stale := reg.Stale(time.Hour); len(stale) != 0 {
		t.Fatalf("stale %v with a generous TTL", stale)
	}
}
