// Live cluster: the same ears and tears nodes that run in the paper's
// discrete-time model, executed as a real networked cluster — every
// process a goroutine with its own loopback TCP listener, payloads on the
// wire codec, a registry control plane, mid-run crashes, and the Go
// scheduler plus real sockets as a genuine (if benevolent) asynchronous
// adversary. Termination is detected by distributed credit counting, and
// the run is judged by the live oracle subset (completion, validity,
// complexity envelopes, credit balance, ...).
//
// The example drives internal/cluster's in-process launcher through the
// repro module; cmd/cluster runs the same specs one OS process per node.
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/scenario"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "livecluster:", err)
		os.Exit(1)
	}
}

func run() error {
	opts := cluster.Options{StepEvery: 500 * time.Microsecond, Timeout: 30 * time.Second}
	// Three scheduled crashes, at 3, 5 and 8 ms (steps of 500µs).
	crashes := []scenario.CrashEvent{{At: 6, Proc: 4}, {At: 10, Proc: 9}, {At: 16, Proc: 17}}
	fmt.Printf("live gossip: 32 TCP nodes on loopback, step every %v, %d scheduled crashes\n",
		opts.StepEvery, len(crashes))

	for _, proto := range []string{core.NameEARS, core.NameTEARS} {
		spec := scenario.Spec{
			Protocol: proto, N: 32, F: len(crashes), D: 2, Delta: 2, Seed: 23,
			Schedule:       scenario.ScheduleSpec{Kind: scenario.SchedEvery},
			Delay:          scenario.DelaySpec{Kind: scenario.DelayFixed, Value: 1},
			Crashes:        crashes,
			Majority:       proto == core.NameTEARS,
			ExpectComplete: true,
		}
		res, err := cluster.Run(context.Background(), spec, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", proto, err)
		}
		fmt.Printf("  %-6s passed=%v wall=%8v messages=%6d drained=%4d p50 latency=%v\n",
			proto, res.Passed, res.QuiesceWall.Round(time.Millisecond), res.TotalSent,
			res.TotalDrained, time.Duration(res.Latency.P50).Round(time.Microsecond))
		for _, v := range res.Verdicts {
			if !v.OK {
				return fmt.Errorf("%s: oracle %s: %s", proto, v.Oracle, v.Detail)
			}
		}
	}
	fmt.Println("\nsame nodes, same correctness checks as the simulator — but over real")
	fmt.Println("sockets under the Go scheduler (run with -race to see the COW payload design hold).")
	return nil
}
