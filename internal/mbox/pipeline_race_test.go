package mbox

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iotsec/internal/packet"
)

// countElem is a trivially cheap element for race tests.
type countElem struct {
	name string
	hits atomic.Uint64
}

func (c *countElem) Name() string                 { return c.name }
func (c *countElem) Process(ctx *Context) Verdict { c.hits.Add(1); return Forward }

// TestPipelineReconfigureUnderTraffic hammers Process from several
// goroutines while the chain is replaced, inserted into and pruned
// concurrently. Run under -race this proves the lock-free forwarding
// path and the copy-on-write reconfiguration never tear.
func TestPipelineReconfigureUnderTraffic(t *testing.T) {
	p := NewPipeline(&countElem{name: "a"}, &countElem{name: "b"})
	frame := buildMgmtFrame(t)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctx := &Context{Frame: frame, Packet: packet.Decode(frame, packet.LayerTypeEthernet)}
				if v := p.Process(ctx); v != Forward {
					t.Errorf("verdict = %v", v)
					return
				}
			}
		}()
	}

	for i := 0; i < 300; i++ {
		switch i % 3 {
		case 0:
			p.Replace(&countElem{name: "a"}, &countElem{name: "b"}, &countElem{name: "c"})
		case 1:
			p.Insert(1, &countElem{name: "d"})
		case 2:
			p.Remove("d")
		}
		_ = p.Stats()
		_ = p.Elements()
	}
	// Let the workers land some traffic before tearing down — the
	// reconfiguration loop above can finish before they are even
	// scheduled.
	deadline := time.Now().Add(2 * time.Second)
	for totalProcessed(p) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if p.reconfigs.Load() != 300 {
		t.Fatalf("reconfigs = %d, want 300", p.reconfigs.Load())
	}
	if totalProcessed(p) == 0 {
		t.Fatal("no element saw traffic")
	}
}

// totalProcessed sums the per-element processed counters.
func totalProcessed(p *Pipeline) uint64 {
	var total uint64
	for _, st := range p.Stats() {
		total += st.Processed
	}
	return total
}

// buildMgmtFrame assembles a minimal TCP frame the pipeline can parse.
func buildMgmtFrame(t *testing.T) []byte {
	t.Helper()
	src, dst := packet.MustParseIPv4("10.0.0.1"), packet.MustParseIPv4("10.0.0.2")
	tcp := &packet.TCP{SrcPort: 40000, DstPort: 8883, Flags: packet.TCPPsh | packet.TCPAck}
	tcp.SetNetworkForChecksum(src, dst)
	b := packet.NewSerializeBuffer()
	err := packet.SerializeLayers(b,
		&packet.Ethernet{
			SrcMAC:    packet.MACAddress{1, 2, 3, 4, 5, 6},
			DstMAC:    packet.MACAddress{6, 5, 4, 3, 2, 1},
			EtherType: packet.EtherTypeIPv4,
		},
		&packet.IPv4{SrcIP: src, DstIP: dst, Protocol: packet.IPProtocolTCP},
		tcp, packet.NewPayload([]byte("IOT/1 STATUS")),
	)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, b.Len())
	copy(frame, b.Bytes())
	return frame
}
