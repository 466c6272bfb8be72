package profile

import (
	"sync"
	"testing"
	"time"

	"iotsec/internal/packet"
	"iotsec/internal/telemetry"
)

var (
	camMAC   = packet.MACAddress{0x02, 0x00, 0x00, 0x00, 0x00, 0x10}
	plugMAC  = packet.MACAddress{0x02, 0x00, 0x00, 0x00, 0x00, 0x11}
	hostMAC  = packet.MACAddress{0x02, 0x00, 0x00, 0x00, 0x00, 0x20}
	rogueMAC = packet.MACAddress{0x02, 0x00, 0x00, 0x00, 0x00, 0x66}

	camIP   = packet.MustParseIPv4("10.0.0.10")
	plugIP  = packet.MustParseIPv4("10.0.0.11")
	hostIP  = packet.MustParseIPv4("10.0.0.200")
	cloudIP = packet.MustParseIPv4("192.0.2.50")
)

// udpFrame serializes a full Ethernet/IPv4/UDP frame for tap
// injection.
func udpFrame(t *testing.T, srcMAC, dstMAC packet.MACAddress, srcIP, dstIP packet.IPv4Address, srcPort, dstPort uint16) []byte {
	t.Helper()
	udp := &packet.UDP{SrcPort: srcPort, DstPort: dstPort}
	udp.SetNetworkForChecksum(srcIP, dstIP)
	b := packet.NewSerializeBuffer()
	err := packet.SerializeLayers(b,
		&packet.Ethernet{SrcMAC: srcMAC, DstMAC: dstMAC, EtherType: packet.EtherTypeIPv4},
		&packet.IPv4{SrcIP: srcIP, DstIP: dstIP, Protocol: packet.IPProtocolUDP},
		udp,
		packet.NewPayload([]byte("x")),
	)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, b.Len())
	copy(out, b.Bytes())
	return out
}

func arpFrame(t *testing.T, srcMAC packet.MACAddress, srcIP, targetIP packet.IPv4Address) []byte {
	t.Helper()
	b := packet.NewSerializeBuffer()
	err := packet.SerializeLayers(b,
		&packet.Ethernet{SrcMAC: srcMAC, DstMAC: packet.BroadcastMAC, EtherType: packet.EtherTypeARP},
		&packet.ARP{Operation: packet.ARPRequest, SenderMAC: srcMAC, SenderIP: srcIP, TargetIP: targetIP},
	)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, b.Len())
	copy(out, b.Bytes())
	return out
}

func camIdentity() Identity {
	return Identity{Name: "cam", SKU: "cam-fw1", MAC: camMAC, IP: camIP}
}

// TestEngineLearnDistill drives a training window through the engine
// tap path and checks per-SKU distillation, including the
// zero-observed-flows device producing an empty (deny-everything)
// profile instead of panicking.
func TestEngineLearnDistill(t *testing.T) {
	e := NewEngine(Options{})
	e.Register(camIdentity())
	e.Register(Identity{Name: "plug", SKU: "cam-fw1", MAC: plugMAC, IP: plugIP})
	e.Register(Identity{Name: "mute", SKU: "mute-fw1",
		MAC: packet.MACAddress{0x02, 0, 0, 0, 0, 0x12}, IP: packet.MustParseIPv4("10.0.0.12")})
	e.StartLearning()

	// cam serves UDP 5683 (request in, reply out); plug checks in to
	// the cloud on UDP 9000. Same SKU → one merged profile.
	e.Observe("host", "cam", udpFrame(t, hostMAC, camMAC, hostIP, camIP, 40000, 5683))
	e.Observe("cam", "host", udpFrame(t, camMAC, hostMAC, camIP, hostIP, 5683, 40000))
	e.Observe("plug", "sw", udpFrame(t, plugMAC, hostMAC, plugIP, cloudIP, 41000, 9000))

	profiles := e.FinishLearning(1)
	prof := profiles["cam-fw1"]
	if prof == nil {
		t.Fatalf("no cam-fw1 profile: %v", profiles)
	}
	if len(prof.Services) != 2 {
		t.Fatalf("cam-fw1 services = %+v, want served 5683 + initiated 9000", prof.Services)
	}
	if !prof.Allows("udp", 5683, 40000, hostIP) {
		t.Error("served reply not allowed")
	}
	if !prof.Allows("udp", 41000, 9000, cloudIP) {
		t.Error("cloud check-in not allowed")
	}
	if prof.Devices != 2 {
		t.Errorf("Devices = %d, want 2 (merged)", prof.Devices)
	}
	if prof.MaxRate <= 0 {
		t.Errorf("MaxRate = %v, want a positive envelope", prof.MaxRate)
	}

	// The silent device still yields a (deny-everything) profile.
	mute := profiles["mute-fw1"]
	if mute == nil {
		t.Fatal("zero-observed-flows SKU produced no profile")
	}
	if len(mute.Services) != 0 || mute.Services == nil {
		t.Errorf("silent profile services = %#v, want empty non-nil", mute.Services)
	}
	if err := mute.Validate(); err != nil {
		t.Errorf("silent profile invalid: %v", err)
	}
	// And FinishLearning folded everything into the accepted set.
	if _, ok := e.Profile("mute-fw1"); !ok {
		t.Error("distilled profile not accepted")
	}
}

func TestEngineViolationKindsAndDedupe(t *testing.T) {
	var mu sync.Mutex
	var got []Violation
	e := NewEngine(Options{OnViolation: func(v Violation) {
		mu.Lock()
		got = append(got, v)
		mu.Unlock()
	}})
	e.Register(camIdentity())
	e.AcceptProfile(&Profile{SKU: "cam-fw1", Version: 1, Services: []Service{
		{Proto: "udp", Port: 5683},
	}})
	if _, _, err := e.Enforce("cam"); err != nil {
		t.Fatal(err)
	}

	// Allowed reply, then ARP: no violations.
	e.Observe("cam", "host", udpFrame(t, camMAC, hostMAC, camIP, hostIP, 5683, 40000))
	e.Observe("cam", "host", arpFrame(t, camMAC, camIP, hostIP))
	// Host-originated traffic is never the device's violation.
	e.Observe("host", "cam", udpFrame(t, hostMAC, camMAC, hostIP, camIP, 7777, 8888))

	// Unauthorized service, twice: one callback, two violation frames.
	bad := udpFrame(t, camMAC, hostMAC, camIP, hostIP, 7000, 4444)
	e.Observe("cam", "host", bad)
	e.Observe("cam", "host", bad)
	// Address hop: registered cam MAC sourcing a foreign address.
	e.Observe("cam", "host", udpFrame(t, camMAC, hostMAC, plugIP, hostIP, 7000, 5683))

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("violations = %+v, want exactly 2 (dedupe)", got)
	}
	if got[0].Kind != ViolationService || got[1].Kind != ViolationAddressHop {
		t.Fatalf("kinds = %s, %s", got[0].Kind, got[1].Kind)
	}
	st := e.Stats()
	if st.ViolationFrames != 3 {
		t.Errorf("violation frames = %d, want 3", st.ViolationFrames)
	}
	if len(e.Violations()) != 2 {
		t.Errorf("violation ring = %+v", e.Violations())
	}
	if health, _ := e.Health(); health != telemetry.HealthDegraded {
		t.Errorf("health with live violations = %v, want degraded", health)
	}
}

func TestEngineRateEnvelope(t *testing.T) {
	now := time.Unix(1000, 0)
	var fired int
	e := NewEngine(Options{
		Clock:       func() time.Time { return now },
		OnViolation: func(v Violation) { fired++ },
	})
	e.Register(camIdentity())
	e.AcceptProfile(&Profile{SKU: "cam-fw1", Version: 1, MaxRate: 5, Services: []Service{
		{Proto: "udp", Port: 5683},
	}})
	if _, _, err := e.Enforce("cam"); err != nil {
		t.Fatal(err)
	}
	ok := udpFrame(t, camMAC, hostMAC, camIP, hostIP, 5683, 40000)
	for i := 0; i < 8; i++ {
		e.Observe("cam", "host", ok)
	}
	if fired != 1 {
		t.Fatalf("rate violations in one epoch = %d, want exactly 1", fired)
	}
	// A new second resets the envelope accounting.
	now = now.Add(2 * time.Second)
	for i := 0; i < 3; i++ {
		e.Observe("cam", "host", ok)
	}
	if fired != 1 {
		t.Fatalf("violations after quiet epoch = %d, want still 1", fired)
	}
}

func TestEngineRogueLockdown(t *testing.T) {
	var mu sync.Mutex
	var rogues []string
	e := NewEngine(Options{
		Lockdown: true,
		OnRogue: func(mac packet.MACAddress, srcNode string) {
			mu.Lock()
			rogues = append(rogues, mac.String()+"@"+srcNode)
			mu.Unlock()
		},
	})
	e.Register(camIdentity())
	e.RegisterHostMAC(hostMAC)

	// Registered device and known host: not rogues.
	e.Observe("cam", "sw", udpFrame(t, camMAC, hostMAC, camIP, hostIP, 1, 2))
	e.Observe("host", "sw", udpFrame(t, hostMAC, camMAC, hostIP, camIP, 1, 2))
	// Unknown MAC: flagged once, however many frames it sends.
	rogue := udpFrame(t, rogueMAC, hostMAC, packet.MustParseIPv4("10.0.0.66"), hostIP, 1, 2)
	e.Observe("intruder", "sw", rogue)
	e.Observe("intruder", "sw", rogue)

	mu.Lock()
	defer mu.Unlock()
	if len(rogues) != 1 || rogues[0] != rogueMAC.String()+"@intruder" {
		t.Fatalf("rogue reports = %v", rogues)
	}
	if got := e.Rogues(); len(got) != 1 {
		t.Fatalf("Rogues() = %v", got)
	}
	if s := e.Stats(); s.Rogues != 1 {
		t.Errorf("stats rogues = %d", s.Rogues)
	}
}

func TestEngineAcceptProfileVersionSemantics(t *testing.T) {
	e := NewEngine(Options{})
	v1 := &Profile{SKU: "cam-fw1", Version: 1, Services: []Service{{Proto: "udp", Port: 5683}}}
	if _, changed := e.AcceptProfile(v1); !changed {
		t.Fatal("fresh install not flagged as change")
	}
	// Same version merges: a new service is a change, a replay is not.
	if _, changed := e.AcceptProfile(v1); changed {
		t.Fatal("idempotent replay flagged as change")
	}
	same := &Profile{SKU: "cam-fw1", Version: 1, Services: []Service{{Proto: "tcp", Port: 80}}}
	eff, changed := e.AcceptProfile(same)
	if !changed || len(eff.Services) != 2 {
		t.Fatalf("same-version merge: changed=%v services=%+v", changed, eff.Services)
	}
	// Higher version replaces outright (firmware drift).
	v2 := &Profile{SKU: "cam-fw1", Version: 2, Services: []Service{{Proto: "udp", Port: 9000, Initiated: true}}}
	eff, changed = e.AcceptProfile(v2)
	if !changed || len(eff.Services) != 1 || eff.Version != 2 {
		t.Fatalf("v2 did not replace: %+v", eff)
	}
	// Stale crowd replays of v1 are ignored.
	eff, changed = e.AcceptProfile(v1)
	if changed || eff.Version != 2 {
		t.Fatalf("stale v1 regressed the profile: changed=%v %+v", changed, eff)
	}
	// Invalid profiles are refused outright.
	if eff, _ := e.AcceptProfile(&Profile{SKU: ""}); eff != nil {
		t.Fatal("invalid profile accepted")
	}
}

func TestEngineEnforceErrors(t *testing.T) {
	e := NewEngine(Options{})
	if _, _, err := e.Enforce("ghost"); err == nil {
		t.Fatal("enforce of unknown device accepted")
	}
	e.Register(camIdentity())
	if _, _, err := e.Enforce("cam"); err == nil {
		t.Fatal("enforce without a SKU profile accepted")
	}
	e.AcceptProfile(&Profile{SKU: "cam-fw1", Version: 1})
	mods, prof, err := e.Enforce("cam")
	if err != nil {
		t.Fatal(err)
	}
	if prof.SKU != "cam-fw1" || len(mods) == 0 {
		t.Fatalf("enforce returned %d mods, profile %+v", len(mods), prof)
	}
	if got := e.EnforcedDevices(); len(got) != 1 || got[0] != "cam" {
		t.Fatalf("EnforcedDevices = %v", got)
	}
}
