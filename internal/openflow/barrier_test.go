package openflow

import (
	"runtime"
	"testing"
	"time"
)

// TestBarrierReleasesItsTimer: a barrier that returns leaves no timer
// behind. 20,000 answered barriers on one live session, each with a
// timeout that never fires during the test, must leave the heap where
// it was; a timer left to run out its timeout stays reachable until it
// fires, which pinned about 5 MB here.
func TestBarrierReleasesItsTimer(t *testing.T) {
	h := newFakeHandler()
	ep := NewControllerEndpoint(h, nil)
	addr, err := ep.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	sw := dialFakeSwitch(t, addr, 7)
	defer sw.Close()
	select {
	case <-h.connected:
	case <-time.After(2 * time.Second):
		t.Fatal("switch never registered")
	}
	go func() {
		for {
			m, xid, err := sw.Receive()
			if err != nil {
				return
			}
			if m.Type() == TypeBarrierRequest {
				_ = sw.SendWithXID(&BarrierReply{}, xid)
			}
		}
	}()

	const n = 20_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := ep.Barrier(7, time.Minute); err != nil {
			t.Fatalf("barrier %d: %v", i, err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("heap grew %d bytes over %d barriers", grew, n)
	if grew >= 1<<20 {
		t.Fatalf("heap grew %d bytes over %d answered barriers, want < 1 MiB", grew, n)
	}
}
