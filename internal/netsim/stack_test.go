package netsim

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"iotsec/internal/openflow"
	"iotsec/internal/packet"
)

// lanPair wires two stacks through a flooding switch (so ARP works)
// and returns them started.
func lanPair(t *testing.T, opts LinkOptions) (*Stack, *Stack, func()) {
	t.Helper()
	stacks, cleanup := lan(t, opts, 2)
	return stacks[0], stacks[1], cleanup
}

// lan builds count stacks on one switch that floods every frame (a
// table-miss entry, so the links can carry any LinkOptions).
func lan(t *testing.T, opts LinkOptions, count int) ([]*Stack, func()) {
	t.Helper()
	n := NewNetwork()
	sw := NewSwitch("sw", 1)
	tableMiss(sw, openflow.Flood())
	stacks := make([]*Stack, count)
	for i := 0; i < count; i++ {
		mac := packet.MACAddress{2, 0, 0, 0, 1, byte(i + 1)}
		ip := packet.IPv4Address{10, 0, 0, byte(i + 1)}
		st := NewStack(fmt.Sprintf("host%d", i+1), mac, ip)
		sp := sw.AttachPort(n, uint16(i+1))
		hp := st.Attach(n)
		n.Connect(hp, sp, opts)
		stacks[i] = st
	}
	n.Start()
	return stacks, func() {
		for _, st := range stacks {
			st.Stop()
		}
		n.Stop()
	}
}

func TestStackUDPExchange(t *testing.T) {
	a, b, cleanup := lanPair(t, LinkOptions{})
	defer cleanup()

	got := make(chan string, 1)
	if err := b.HandleUDP(7, func(srcIP packet.IPv4Address, srcPort uint16, payload []byte) {
		got <- fmt.Sprintf("%s:%d %s", srcIP, srcPort, payload)
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.SendUDP(b.IP(), 7, 5000, []byte("echo")); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-got:
		if s != "10.0.0.1:5000 echo" {
			t.Errorf("udp receive = %q", s)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("udp datagram never arrived (ARP resolution broken?)")
	}
}

func TestStackUDPDuplicateBindRejected(t *testing.T) {
	a, _, cleanup := lanPair(t, LinkOptions{})
	defer cleanup()
	if err := a.HandleUDP(53, func(packet.IPv4Address, uint16, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := a.HandleUDP(53, func(packet.IPv4Address, uint16, []byte) {}); err == nil {
		t.Error("duplicate UDP bind accepted")
	}
}

func TestStreamEchoSession(t *testing.T) {
	a, b, cleanup := lanPair(t, LinkOptions{})
	defer cleanup()

	// b echoes every message back.
	if err := b.Listen(80, func(st *Stream) {
		st.OnMessage(func(msg []byte) {
			_ = st.Send(append([]byte("echo:"), msg...))
		})
	}); err != nil {
		t.Fatal(err)
	}

	conn, err := a.Dial(b.IP(), 80, 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	replies := make(chan string, 8)
	conn.OnMessage(func(msg []byte) { replies <- string(msg) })

	for i := 0; i < 3; i++ {
		if err := conn.Send([]byte(fmt.Sprintf("msg%d", i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for i := 0; i < 3; i++ {
		select {
		case r := <-replies:
			if r != fmt.Sprintf("echo:msg%d", i) {
				t.Errorf("reply %d = %q (ordering broken?)", i, r)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("reply %d never arrived", i)
		}
	}
	conn.Close()
}

func TestStreamDialRefusedWithoutListener(t *testing.T) {
	a, b, cleanup := lanPair(t, LinkOptions{})
	defer cleanup()
	_, err := a.Dial(b.IP(), 81, 500*time.Millisecond)
	if err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestStreamDialTimeoutToDeadAddress(t *testing.T) {
	a, _, cleanup := lanPair(t, LinkOptions{})
	defer cleanup()
	start := time.Now()
	_, err := a.Dial(packet.MustParseIPv4("10.0.0.200"), 80, 200*time.Millisecond)
	if err == nil {
		t.Fatal("dial to nonexistent host succeeded")
	}
	if time.Since(start) > 2*time.Second {
		t.Error("dial timeout took far too long")
	}
}

func TestStreamSurvivesLoss(t *testing.T) {
	// 30% loss in both directions: retransmission must still deliver
	// every message exactly once, in order.
	a, b, cleanup := lanPair(t, LinkOptions{LossRate: 0.3, Seed: 7})
	defer cleanup()
	a.RetransmitInterval = 10 * time.Millisecond
	a.MaxRetransmits = 30
	b.RetransmitInterval = 10 * time.Millisecond
	b.MaxRetransmits = 30

	var mu sync.Mutex
	var received []string
	if err := b.Listen(80, func(st *Stream) {
		st.OnMessage(func(msg []byte) {
			mu.Lock()
			received = append(received, string(msg))
			mu.Unlock()
		})
	}); err != nil {
		t.Fatal(err)
	}

	var conn *Stream
	var err error
	for attempt := 0; attempt < 10; attempt++ {
		conn, err = a.Dial(b.IP(), 80, 2*time.Second)
		if err == nil {
			break
		}
	}
	if err != nil {
		t.Fatalf("dial through loss: %v", err)
	}
	const total = 20
	for i := 0; i < total; i++ {
		if err := conn.Send([]byte(fmt.Sprintf("m%02d", i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(received)
		mu.Unlock()
		if n >= total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d messages delivered", n, total)
		}
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, msg := range received[:total] {
		if msg != fmt.Sprintf("m%02d", i) {
			t.Errorf("position %d = %q: order or dedup violated", i, msg)
		}
	}
}

func TestStreamCloseNotifiesPeer(t *testing.T) {
	a, b, cleanup := lanPair(t, LinkOptions{})
	defer cleanup()

	peerClosed := make(chan error, 1)
	if err := b.Listen(80, func(st *Stream) {
		st.OnClose(func(err error) { peerClosed <- err })
	}); err != nil {
		t.Fatal(err)
	}
	conn, err := a.Dial(b.IP(), 80, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	select {
	case err := <-peerClosed:
		if err != nil {
			t.Errorf("graceful close reported error %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("peer never observed close")
	}
	if err := conn.Send([]byte("after close")); err == nil {
		t.Error("send after close succeeded")
	}
}

func TestStackStopAbortsStreams(t *testing.T) {
	a, b, cleanup := lanPair(t, LinkOptions{})
	defer cleanup()
	if err := b.Listen(80, func(st *Stream) {}); err != nil {
		t.Fatal(err)
	}
	conn, err := a.Dial(b.IP(), 80, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	a.Stop()
	if err := conn.Send([]byte("x")); err == nil {
		t.Error("send on stopped stack succeeded")
	}
}

func TestManyStacksConcurrentSessions(t *testing.T) {
	const hosts = 8
	stacks, cleanup := lan(t, LinkOptions{}, hosts)
	defer cleanup()

	server := stacks[0]
	var hits sync.WaitGroup
	if err := server.Listen(80, func(st *Stream) {
		st.OnMessage(func(msg []byte) {
			_ = st.Send(msg)
		})
	}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, hosts)
	for i := 1; i < hosts; i++ {
		wg.Add(1)
		go func(st *Stack) {
			defer wg.Done()
			conn, err := st.Dial(server.IP(), 80, 2*time.Second)
			if err != nil {
				errs <- err
				return
			}
			gotReply := make(chan struct{})
			conn.OnMessage(func([]byte) { close(gotReply) })
			if err := conn.Send([]byte(st.NodeName())); err != nil {
				errs <- err
				return
			}
			select {
			case <-gotReply:
			case <-time.After(2 * time.Second):
				errs <- fmt.Errorf("%s: no echo", st.NodeName())
			}
			conn.Close()
		}(stacks[i])
	}
	wg.Wait()
	hits.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
