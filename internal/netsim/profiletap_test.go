package netsim_test

import (
	"testing"
	"time"

	"iotsec/internal/netsim"
	"iotsec/internal/openflow"
	"iotsec/internal/packet"
	"iotsec/internal/profile"
)

// quietController accepts one switch and ignores its events.
type quietController struct{ connected chan uint64 }

func (c *quietController) SwitchConnected(dpid uint64, _ []uint16) { c.connected <- dpid }
func (c *quietController) SwitchDisconnected(uint64)               {}
func (c *quietController) HandlePacketIn(*openflow.PacketIn)       {}
func (c *quietController) HandleFlowRemoved(*openflow.FlowRemoved) {}

type sinkNode string

func (s sinkNode) NodeName() string                       { return string(s) }
func (s sinkNode) HandleFrame(*netsim.Port, netsim.Frame) {}

// TestTapOnPacketOutNeverRunsOnServeLoop: the profile plane's tap sees
// a PACKET_OUT's frame when it is delivered, not on the agent's serve
// loop that received the PACKET_OUT. Under lockdown a frame from an
// unregistered MAC is a rogue join, quarantined with a FLOW_MOD and a
// BARRIER on the same session; only the serve loop reads the barrier's
// reply, so the barrier completes well inside its 2 s timeout only if
// the tap ran elsewhere.
func TestTapOnPacketOutNeverRunsOnServeLoop(t *testing.T) {
	ctrl := &quietController{connected: make(chan uint64, 1)}
	ep := openflow.NewControllerEndpoint(ctrl, nil)
	addr, err := ep.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	const dpid = 81
	devMAC := packet.MACAddress{2, 0, 0, 0, 0, 1}
	rogueMAC := packet.MACAddress{2, 0xbb, 0, 0, 0, 0x66}
	type quarantine struct {
		took time.Duration
		err  error
	}
	done := make(chan quarantine, 1)
	engine := profile.NewEngine(profile.Options{
		Lockdown: true,
		OnRogue: func(mac packet.MACAddress, _ string) {
			begin := time.Now()
			err := ep.SendFlowMod(dpid, &openflow.FlowMod{
				Command:  openflow.FlowAdd,
				Match:    openflow.MatchAll().WithEthSrc(mac),
				Priority: 400,
			})
			if err == nil {
				err = ep.Barrier(dpid, 2*time.Second)
			}
			done <- quarantine{time.Since(begin), err}
		},
	})
	engine.RegisterHostMAC(devMAC)

	n := netsim.NewNetwork()
	n.AddTap(engine.Tap())
	sw := netsim.NewSwitch("sw", dpid)
	sw.Attach(n, n.NewPort(sinkNode("dev"), 1), devMAC)
	n.Start()
	defer n.Stop()
	agent, err := netsim.ConnectAgent(sw, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Stop()
	select {
	case <-ctrl.connected:
	case <-time.After(2 * time.Second):
		t.Fatal("switch never connected")
	}

	frame := make([]byte, 60)
	copy(frame[0:6], devMAC[:])
	copy(frame[6:12], rogueMAC[:])
	frame[12], frame[13] = 0x88, 0xb5 // local experimental EtherType
	if err := ep.SendPacketOut(dpid, &openflow.PacketOut{
		InPort:  2,
		Actions: []openflow.Action{openflow.Output(1)},
		Data:    frame,
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case q := <-done:
		if q.err != nil {
			t.Fatalf("rogue quarantine barrier: %v", q.err)
		}
		if q.took >= time.Second {
			t.Fatalf("rogue quarantine barrier took %v, want < 1s", q.took)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the tap never saw the PACKET_OUT's frame")
	}
}
