package cluster

import (
	"net"
	"testing"
	"time"
)

// dialControl against a port nobody listens on must give up within its
// timeout plus one dial attempt: backoff sleeps are clamped to the
// deadline instead of doubling past it. The timeout falls just after a
// 1275ms run of doubling sleeps (5ms·(2⁸−1)), where an unclamped 1280ms
// sleep would overshoot the bound.
func TestDialControlHonorsTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	const timeout = 1300 * time.Millisecond
	start := time.Now()
	if _, err := dialControl(addr, timeout); err == nil {
		t.Fatal("dial to a closed port succeeded")
	}
	if took, limit := time.Since(start), timeout+controlDialTimeout; took > limit {
		t.Fatalf("gave up after %v, bound is %v", took, limit)
	}
}
