package main

import (
	"context"
	"fmt"
	"time"

	"iotsec/internal/core"
	"iotsec/internal/device"
	"iotsec/internal/forensics"
	"iotsec/internal/ids"
	"iotsec/internal/netsim"
	"iotsec/internal/packet"
	"iotsec/internal/policy"
)

const (
	gatewayDevices = 32
	crowdRules     = 1000
	adminUser      = "homeadmin"
	adminPass      = "Str0ng!pass"
)

// quarantineCookieTag is the class tag controller.Steering puts in the
// top byte of every quarantine rule's cookie (0x51, 'Q', then the MAC).
const quarantineCookieTag = 0x51

// gateway is the deployment both frame workloads run on: one
// core.Platform with 32 camera-class devices, each behind its own
// µmbox (ids over 1,000 crowd signature rules for the SKU, then the
// password proxy, then the stateful firewall; isolate on suspicious),
// a real southbound session over loopback TCP, and the production
// planes — assembled in the order iotsecd assembles them.
type gateway struct {
	p       *core.Platform
	sb      *core.Southbound
	pl      *planes
	report  *core.FleetSelfReport
	fsm     *policy.FSM
	cams    []*core.Managed
	client  *netsim.Stack
	hosts   []*netsim.Stack // every attached host, client included
	rules   []string        // the crowd rule texts, rule i matching marker(i)
	markers []string
}

func camName(i int) string { return fmt.Sprintf("cam%02d", i) }

// crowdRuleSet makes the SKU's signature rules: each matches one
// distinct marker string in a TCP payload to port 80. The markers share
// a prefix, as signatures for one SKU's firmware do, which keeps the
// compiled automaton near a thousand states; which signature a device's
// attack frame trips is what the seed decides.
func crowdRuleSet() (rules, markers []string) {
	for i := 0; i < crowdRules; i++ {
		marker := fmt.Sprintf("xpl%04d", i)
		markers = append(markers, marker)
		rules = append(rules, fmt.Sprintf(
			`alert tcp any any -> any %d (msg:"crowd signature %d"; content:"%s"; sid:%d;)`,
			device.MgmtPort, i, marker, 100000+i))
	}
	return rules, markers
}

func buildGateway() (*gateway, error) {
	g := &gateway{}
	g.rules, g.markers = crowdRuleSet()

	d := policy.NewDomain()
	g.fsm = policy.NewFSM(d)
	for i := 0; i < gatewayDevices; i++ {
		name := camName(i)
		d.AddDevice(name, policy.ContextNormal, policy.ContextSuspicious)
		g.fsm.AddRule(policy.Rule{
			Name:   "protect-" + name,
			Device: name,
			Posture: policy.Posture{Modules: []policy.ModuleSpec{
				{Kind: "ids"},
				{Kind: "password-proxy", Config: map[string]string{"user": adminUser, "pass": adminPass}},
				{Kind: "stateful-fw"},
			}},
			Priority: 1,
		})
		g.fsm.AddRule(policy.Rule{
			Name:       "isolate-" + name,
			Conditions: []policy.Condition{policy.DeviceIs(name, policy.ContextSuspicious)},
			Device:     name,
			Posture:    policy.Posture{Isolate: true},
			Priority:   100,
		})
	}
	p, err := core.New(core.Options{Policy: g.fsm})
	if err != nil {
		return nil, err
	}
	g.p = p
	// Rules first: installed before any device of the SKU exists, they
	// cost one parse each instead of one engine rebuild per device.
	sku := device.CameraProfile().SKU
	for _, rule := range g.rules {
		if err := p.AddSignatureRule(sku, rule); err != nil {
			return nil, err
		}
	}
	for i := 0; i < gatewayDevices; i++ {
		cam := device.NewCamera(camName(i), packet.IPv4Address{10, 0, 1, byte(10 + i)})
		m, err := p.AddDevice(cam.Device)
		if err != nil {
			return nil, err
		}
		g.cams = append(g.cams, m)
	}
	g.client = g.attachHost("client", packet.IPv4Address{10, 0, 0, 200})
	p.Start()

	if g.sb, err = p.AttachSouthbound(core.SouthboundOptions{}); err != nil {
		g.close()
		return nil, fmt.Errorf("southbound: %w", err)
	}
	if !g.sb.Steering.WaitForSwitch(5 * time.Second) {
		g.close()
		return nil, fmt.Errorf("southbound: switch never completed the handshake")
	}
	if g.pl, err = attachPlanes(); err != nil {
		g.close()
		return nil, err
	}
	g.pl.capt = p.EnableForensics(forensics.Options{Store: g.pl.store, Shard: "bench"})
	g.report = p.StartFleetSelfReport("bench", rollupInterval, g.pl.tracker.E2E())

	// The global controller's first reconcile re-applies every device's
	// posture (32 engine builds, ~60 ms) on whichever goroutine commits
	// the first view change, and it applies them from the state it read
	// at the start: left to the first attack frame, the sweep runs on
	// that µmbox's port goroutine long after the driver has moved on,
	// and lifts whatever newer quarantine it reaches. Do it here, on
	// this goroutine, so it is over before anything is timed.
	first := g.cams[0].Device.Name
	g.p.Global.View.SetDeviceContext(context.Background(), first, policy.ContextSuspicious, "bench first reconcile")
	g.p.Global.View.SetDeviceContext(context.Background(), first, policy.ContextNormal, "bench first reconcile")

	// One admin request per device: ARP caches fill on both sides, so
	// no measured operation pays a broadcast resolution.
	for _, m := range g.cams {
		if _, err := g.call(nil, 0, 0, g.client, m, device.Request{Cmd: "STATUS", User: adminUser, Pass: adminPass}); err != nil {
			g.close()
			return nil, fmt.Errorf("touching %s: %w", m.Device.Name, err)
		}
	}
	return g, nil
}

// attachHost connects one more plain host to the uplink switch.
func (g *gateway) attachHost(name string, ip packet.IPv4Address) *netsim.Stack {
	st := netsim.NewStack(name, device.MACFor(ip), ip)
	g.p.AttachHost(st)
	g.hosts = append(g.hosts, st)
	return st
}

// call is device.Client.Call with the layer boundaries exposed: dial,
// send and the wait for the reply are separate steps so a traced run
// can span each. A refusal by the password proxy tears the stream down
// with a forged RST, which surfaces as an error from send.
func (g *gateway) call(r *recorder, trace uint64, parent uint32, from *netsim.Stack, m *core.Managed, req device.Request) (device.Response, error) {
	var conn *netsim.Stream
	var err error
	r.timed(trace, parent, "netsim.dial", func() {
		conn, err = from.Dial(m.Device.IP(), device.MgmtPort, opTimeout)
	})
	if err != nil {
		return device.Response{}, err
	}
	defer conn.Close()
	reply := make(chan []byte, 1)
	conn.OnMessage(func(msg []byte) {
		select {
		case reply <- msg:
		default:
		}
	})
	r.timed(trace, parent, "netsim.send", func() { err = conn.Send(req.Encode()) })
	if err != nil {
		return device.Response{}, err
	}
	var resp device.Response
	r.timed(trace, parent, "device.reply", func() {
		timeout := time.NewTimer(opTimeout)
		defer timeout.Stop()
		select {
		case msg := <-reply:
			resp, err = device.ParseResponse(msg)
		case <-timeout.C:
			err = netsim.ErrTimeout
		}
	})
	return resp, err
}

// tcpFrame serialises one TCP data segment between two stacks' addresses.
func tcpFrame(srcMAC, dstMAC packet.MACAddress, srcIP, dstIP packet.IPv4Address, srcPort, dstPort uint16, payload []byte) ([]byte, error) {
	tcp := &packet.TCP{SrcPort: srcPort, DstPort: dstPort, Seq: 1, Flags: packet.TCPPsh | packet.TCPAck}
	tcp.SetNetworkForChecksum(srcIP, dstIP)
	b := packet.NewSerializeBuffer()
	err := packet.SerializeLayers(b,
		&packet.Ethernet{SrcMAC: srcMAC, DstMAC: dstMAC, EtherType: packet.EtherTypeIPv4},
		&packet.IPv4{SrcIP: srcIP, DstIP: dstIP, Protocol: packet.IPProtocolTCP},
		tcp,
		packet.NewPayload(payload),
	)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), b.Bytes()...), nil
}

// frameTo is a segment from the client to a camera's management port —
// the shape of an attack frame, a leak probe, or a management request,
// depending on the payload.
func (g *gateway) frameTo(m *core.Managed, payload []byte) ([]byte, error) {
	return tcpFrame(g.client.MAC(), m.Device.MAC(), g.client.IP(), m.Device.IP(), 40000, device.MgmtPort, payload)
}

// parsedRules parses the crowd rule texts for the standalone probes.
func (g *gateway) parsedRules() []*ids.Rule {
	out := make([]*ids.Rule, 0, len(g.rules))
	for _, text := range g.rules {
		if r, err := ids.ParseRule(text); err == nil && r != nil {
			out = append(out, r)
		}
	}
	return out
}

// quarantineEntries counts the switch's quarantine-class flow entries.
func (g *gateway) quarantineEntries() int {
	n := 0
	for _, e := range g.p.Switch.Table().Entries() {
		if e.Cookie>>48 == quarantineCookieTag {
			n++
		}
	}
	return n
}

func (g *gateway) close() {
	if g.report != nil {
		g.report.Stop()
	}
	g.pl.close()
	if g.sb != nil {
		g.sb.Close()
	}
	for _, st := range g.hosts {
		st.Stop()
	}
	g.p.Stop()
}
