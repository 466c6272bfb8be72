package learn

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"iotsec/internal/device"
	"iotsec/internal/ids"
	"iotsec/internal/netsim"
	"iotsec/internal/packet"
)

func TestGenerateSignatureToken(t *testing.T) {
	attack := [][]byte{
		[]byte("IOT/1 ON wemo-dbg-7f3a\n"),
		[]byte("IOT/1 OFF wemo-dbg-7f3a\n"),
		[]byte("IOT/1 USAGE wemo-dbg-7f3a\n"),
	}
	benign := [][]byte{
		[]byte("IOT/1 STATUS\nauth: owner:wemo123\n"),
		[]byte("IOT/1 ON\nauth: owner:wemo123\n"),
		[]byte("IOT/1 USAGE\nauth: owner:wemo123\n"),
	}
	token, err := GenerateSignatureToken(attack, benign, 16, 4, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	// The token must separate the corpora.
	for _, p := range benign {
		if bytes.Contains(p, token) {
			t.Fatalf("token %q appears in benign traffic", token)
		}
	}
	hits := 0
	for _, p := range attack {
		if bytes.Contains(p, token) {
			hits++
		}
	}
	if hits < 3 {
		t.Errorf("token %q hits only %d/3 attack payloads", token, hits)
	}
	// It should key on the backdoor token region.
	if !bytes.Contains([]byte("wemo-dbg-7f3a"), token) && !bytes.Contains(token, []byte("dbg")) {
		t.Logf("note: token %q separates but is not the backdoor substring", token)
	}
}

func TestGenerateSignatureTokenNoSeparation(t *testing.T) {
	same := [][]byte{[]byte("identical payload")}
	if _, err := GenerateSignatureToken(same, same, 16, 4, 0.8); err == nil {
		t.Error("inseparable corpora yielded a token")
	}
	if _, err := GenerateSignatureToken(nil, same, 16, 4, 0.8); err == nil {
		t.Error("empty attack corpus yielded a token")
	}
}

func TestGenerateRuleParsesAndDiscriminates(t *testing.T) {
	attack := [][]byte{
		[]byte("IOT/1 ON wemo-dbg-7f3a\n"),
		[]byte("IOT/1 OFF wemo-dbg-7f3a\n"),
	}
	benign := [][]byte{
		[]byte("IOT/1 ON\nauth: owner:wemo123\n"),
		[]byte("IOT/1 STATUS\n"),
	}
	ruleText, err := GenerateRule(attack, benign, "auto: wemo backdoor", 9100)
	if err != nil {
		t.Fatal(err)
	}
	rule, err := ids.ParseRule(ruleText)
	if err != nil {
		t.Fatalf("generated rule does not parse: %q: %v", ruleText, err)
	}
	engine := ids.NewEngine([]*ids.Rule{rule})

	mkPkt := func(payload []byte) *packet.Packet {
		src, dst := packet.MustParseIPv4("10.0.0.66"), packet.MustParseIPv4("10.0.0.5")
		tcp := &packet.TCP{SrcPort: 40000, DstPort: 80, Flags: packet.TCPPsh | packet.TCPAck}
		tcp.SetNetworkForChecksum(src, dst)
		b := packet.NewSerializeBuffer()
		_ = packet.SerializeLayers(b,
			&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
			&packet.IPv4{SrcIP: src, DstIP: dst, Protocol: packet.IPProtocolTCP},
			tcp, packet.NewPayload(payload),
		)
		frame := make([]byte, b.Len())
		copy(frame, b.Bytes())
		return packet.Decode(frame, packet.LayerTypeEthernet)
	}
	for _, p := range attack {
		if blocked, _ := engine.Verdict(mkPkt(p)); !blocked {
			t.Errorf("generated rule misses attack payload %q", p)
		}
	}
	for _, p := range benign {
		if blocked, _ := engine.Verdict(mkPkt(p)); blocked {
			t.Errorf("generated rule false-positives on %q", p)
		}
	}
}

// TestCaptureToSignaturePipeline runs the whole §4.1 loop on live
// traffic: record the fabric while an attacker uses the backdoor and
// an owner uses the app, then distill a working rule from the capture.
func TestCaptureToSignaturePipeline(t *testing.T) {
	n := netsim.NewNetwork()
	rec := netsim.NewRecorder()
	n.AddTap(rec.Tap())
	sw := netsim.NewSwitch("sw", 1)

	plug := device.NewSmartPlug("wemo", packet.MustParseIPv4("10.0.0.10"), device.Appliance{Name: "lamp"})
	plugPort, err := plug.Device.Attach(n)
	if err != nil {
		t.Fatal(err)
	}
	sw.Attach(n, plugPort, plug.MAC())

	mkHost := func(ip string) *netsim.Stack {
		addr := packet.MustParseIPv4(ip)
		st := netsim.NewStack("h"+ip, device.MACFor(addr), addr)
		sw.Attach(n, st.Attach(n), st.MAC())
		t.Cleanup(st.Stop)
		return st
	}
	owner := mkHost("10.0.0.2")
	attacker := mkHost("10.0.0.66")
	n.Start()
	t.Cleanup(func() { plug.Stop(); n.Stop() })

	ownerClient := &device.Client{Stack: owner, Timeout: time.Second}
	attackerClient := &device.Client{Stack: attacker, Timeout: time.Second}
	for i := 0; i < 4; i++ {
		if _, err := ownerClient.Call(plug.IP(), device.Request{Cmd: "STATUS", User: "owner", Pass: "wemo123"}); err != nil {
			t.Fatal(err)
		}
		if _, err := attackerClient.Call(plug.IP(), device.Request{Cmd: "ON", Args: []string{device.PlugBackdoorToken}}); err != nil {
			t.Fatal(err)
		}
	}

	frames := rec.Frames()
	attackPayloads := MgmtPayloadsFrom(frames, plug.IP(), packet.MustParseIPv4("10.0.0.66"))
	benignPayloads := MgmtPayloadsFrom(frames, plug.IP(), packet.MustParseIPv4("10.0.0.2"))
	if len(attackPayloads) == 0 || len(benignPayloads) == 0 {
		t.Fatalf("capture split: %d attack, %d benign", len(attackPayloads), len(benignPayloads))
	}

	ruleText, err := GenerateRule(attackPayloads, benignPayloads, "auto: captured exploit", 9200)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ruleText, "block tcp") {
		t.Errorf("rule = %q", ruleText)
	}
	// The distilled rule must parse and key on something the
	// attacker sends.
	rule, err := ids.ParseRule(ruleText)
	if err != nil {
		t.Fatalf("generated rule unparseable: %v", err)
	}
	token := rule.Contents[0].Pattern
	for _, p := range benignPayloads {
		if bytes.Contains(p, token) {
			t.Fatalf("token %q appears in owner traffic", token)
		}
	}
}
