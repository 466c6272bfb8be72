package ids

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"iotsec/internal/packet"
)

func TestParseRuleFull(t *testing.T) {
	r, err := ParseRule(`alert tcp any any -> 10.0.0.0/24 80 (msg:"admin login attempt"; content:"admin"; nocase; content:"login"; sid:1001;)`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Action != ActionAlert || r.Proto != ProtoTCP {
		t.Errorf("head = %s %s", r.Action, r.Proto)
	}
	if !r.SrcIP.Any || !r.SrcPort.Any {
		t.Error("src should be any/any")
	}
	if r.DstIP.Any || r.DstIP.Prefix != 24 || r.DstPort.Port != 80 {
		t.Errorf("dst = %+v %+v", r.DstIP, r.DstPort)
	}
	if r.Msg != "admin login attempt" || r.SID != 1001 {
		t.Errorf("options: msg=%q sid=%d", r.Msg, r.SID)
	}
	if len(r.Contents) != 2 || !r.Contents[0].NoCase || r.Contents[1].NoCase {
		t.Errorf("contents = %+v", r.Contents)
	}
	// nocase contents stored lowercased
	if string(r.Contents[0].Pattern) != "admin" {
		t.Errorf("pattern = %q", r.Contents[0].Pattern)
	}
}

func TestParseRuleErrors(t *testing.T) {
	bad := []string{
		"alert tcp any any => any 80 (sid:1;)",   // bad direction
		"alert icmp any any -> any 80 (sid:1;)",  // unsupported proto
		"drop tcp any any -> any 80 (sid:1;)",    // unknown action
		"alert tcp 300.0.0.1 any -> any 80 ()",   // bad IP
		"alert tcp any 99999 -> any 80 (sid:1;)", // bad port
		"alert tcp any any -> any 80 (nocase;)",  // nocase before content
		"alert tcp any any -> any 80 (frob:1;)",  // unknown option
	}
	for _, line := range bad {
		if _, err := ParseRule(line); err == nil {
			t.Errorf("accepted %q", line)
		}
	}
	// Comments and blanks are skipped, not errors.
	for _, line := range []string{"", "   ", "# comment"} {
		r, err := ParseRule(line)
		if err != nil || r != nil {
			t.Errorf("line %q: %v %v", line, r, err)
		}
	}
}

func TestParseRulesAndStringRoundTrip(t *testing.T) {
	text := `
# IoT default-credential probes
alert tcp any any -> any 80 (msg:"default creds"; content:"admin:admin"; sid:1;)
block udp any any -> any 53 (msg:"dns any query"; content:"example"; sid:2;)
`
	rules, err := ParseRules(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("parsed %d rules", len(rules))
	}
	// String() output must reparse to the same rule.
	for _, r := range rules {
		again, err := ParseRule(r.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", r.String(), err)
		}
		if again.String() != r.String() {
			t.Errorf("unstable canonical form: %q vs %q", again.String(), r.String())
		}
	}
}

func TestQuotedSemicolonInContent(t *testing.T) {
	r, err := ParseRule(`alert tcp any any -> any 80 (msg:"semi;colon"; content:"a;b"; sid:3;)`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Msg != "semi;colon" || string(r.Contents[0].Pattern) != "a;b" {
		t.Errorf("parsed %+v", r)
	}
}

// scan is the map-based oracle for the automaton: the set of pattern
// indices found in data, with none of scanInto's scratch bookkeeping.
func (ac *ahoCorasick) scan(data []byte, hits map[int]bool) {
	state := int32(0)
	for _, b := range data {
		state = ac.next[state][b]
		for _, idx := range ac.output[state] {
			hits[idx] = true
		}
	}
}

// containsNaive is the reference substring matcher the property tests
// compare the automaton (and, via naiveMatch, the engine) against.
func containsNaive(haystack, needle []byte) bool {
	if len(needle) == 0 {
		return true
	}
outer:
	for i := 0; i+len(needle) <= len(haystack); i++ {
		for j := range needle {
			if haystack[i+j] != needle[j] {
				continue outer
			}
		}
		return true
	}
	return false
}

func TestAhoCorasickAgainstNaiveProperty(t *testing.T) {
	patterns := [][]byte{
		[]byte("admin"), []byte("dmin"), []byte("backdoor"),
		[]byte("a"), []byte("aa"), []byte("aba"),
	}
	ac := newAhoCorasick(patterns)
	f := func(payload []byte) bool {
		hits := make(map[int]bool)
		ac.scan(payload, hits)
		for i, pat := range patterns {
			if hits[i] != containsNaive(payload, pat) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAhoCorasickOverlappingPatterns(t *testing.T) {
	patterns := [][]byte{[]byte("he"), []byte("she"), []byte("his"), []byte("hers")}
	ac := newAhoCorasick(patterns)
	// he, she, his, hers share "h" and "s"/"sh" prefixes: root + 9
	// states, reserved exactly (no regrowth, no dense row left unused).
	if len(ac.next) != 10 || cap(ac.next) != 10 {
		t.Errorf("automaton has %d states in %d reserved rows, want 10 in 10", len(ac.next), cap(ac.next))
	}
	hits := make(map[int]bool)
	ac.scan([]byte("ushers"), hits)
	// "ushers" contains "she", "he", "hers".
	want := map[int]bool{0: true, 1: true, 3: true}
	for i := range patterns {
		if hits[i] != want[i] {
			t.Errorf("pattern %q: hit=%v want=%v", patterns[i], hits[i], want[i])
		}
	}
}

// buildPacket makes an eth/ip/tcp or udp packet with payload.
func buildPacket(t *testing.T, proto packet.IPProtocol, srcIP, dstIP string, srcPort, dstPort uint16, payload string) *packet.Packet {
	t.Helper()
	src, dst := packet.MustParseIPv4(srcIP), packet.MustParseIPv4(dstIP)
	b := packet.NewSerializeBuffer()
	var transport packet.SerializableLayer
	if proto == packet.IPProtocolTCP {
		tcp := &packet.TCP{SrcPort: srcPort, DstPort: dstPort, Flags: packet.TCPPsh | packet.TCPAck}
		tcp.SetNetworkForChecksum(src, dst)
		transport = tcp
	} else {
		udp := &packet.UDP{SrcPort: srcPort, DstPort: dstPort}
		udp.SetNetworkForChecksum(src, dst)
		transport = udp
	}
	err := packet.SerializeLayers(b,
		&packet.Ethernet{SrcMAC: packet.MACAddress{2, 0, 0, 0, 0, 1}, DstMAC: packet.MACAddress{2, 0, 0, 0, 0, 2}, EtherType: packet.EtherTypeIPv4},
		&packet.IPv4{SrcIP: src, DstIP: dst, Protocol: proto},
		transport,
		packet.NewPayload([]byte(payload)),
	)
	if err != nil {
		t.Fatal(err)
	}
	return packet.Decode(b.Bytes(), packet.LayerTypeEthernet)
}

func TestEngineMatchScenarios(t *testing.T) {
	rules, err := ParseRules(`
alert tcp any any -> any 80 (msg:"default creds"; content:"admin:admin"; sid:1;)
alert tcp any any -> any 80 (msg:"case insensitive"; content:"BACKDOOR"; nocase; sid:2;)
block udp any any -> 10.0.0.5 53 (msg:"dns to plug"; sid:3;)
alert tcp 10.0.9.0/24 any -> any any (msg:"from attacker net"; content:"x"; sid:4;)
alert tcp any any -> any 80 (msg:"two contents"; content:"foo"; content:"bar"; sid:5;)
`)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(rules)
	if e.RuleCount() != 5 {
		t.Fatalf("rule count = %d", e.RuleCount())
	}

	cases := []struct {
		name    string
		pkt     *packet.Packet
		sids    []int
		blocked bool
	}{
		{
			name: "default creds hit",
			pkt:  buildPacket(t, packet.IPProtocolTCP, "10.0.0.1", "10.0.0.2", 999, 80, "auth: admin:admin"),
			sids: []int{1},
		},
		{
			name: "nocase hit",
			pkt:  buildPacket(t, packet.IPProtocolTCP, "10.0.0.1", "10.0.0.2", 999, 80, "open BackDoor now"),
			sids: []int{2},
		},
		{
			name:    "contentless udp block",
			pkt:     buildPacket(t, packet.IPProtocolUDP, "10.0.0.1", "10.0.0.5", 999, 53, "anything"),
			sids:    []int{3},
			blocked: true,
		},
		{
			name: "wrong dst port misses",
			pkt:  buildPacket(t, packet.IPProtocolTCP, "10.0.0.1", "10.0.0.2", 999, 81, "admin:admin"),
			sids: nil,
		},
		{
			name: "src prefix match",
			pkt:  buildPacket(t, packet.IPProtocolTCP, "10.0.9.77", "10.0.0.2", 999, 12345, "xyz"),
			sids: []int{4},
		},
		{
			name: "two contents need both",
			pkt:  buildPacket(t, packet.IPProtocolTCP, "10.0.0.1", "10.0.0.2", 999, 80, "foo only"),
			sids: nil,
		},
		{
			name: "two contents both present",
			pkt:  buildPacket(t, packet.IPProtocolTCP, "10.0.0.1", "10.0.0.2", 999, 80, "foo and bar"),
			sids: []int{5},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			blocked, alerts := e.Verdict(c.pkt)
			var sids []int
			for _, a := range alerts {
				sids = append(sids, a.SID)
			}
			if !equalIntSets(sids, c.sids) {
				t.Errorf("sids = %v, want %v", sids, c.sids)
			}
			if blocked != c.blocked {
				t.Errorf("blocked = %v, want %v", blocked, c.blocked)
			}
		})
	}
}

func equalIntSets(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[int]int)
	for _, x := range a {
		set[x]++
	}
	for _, x := range b {
		set[x]--
		if set[x] < 0 {
			return false
		}
	}
	return true
}

func TestEngineBidirectionalRule(t *testing.T) {
	rules, err := ParseRules(`alert tcp 10.0.0.1 any <> 10.0.0.2 any (msg:"pair"; content:"z"; sid:9;)`)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(rules)
	fwd := buildPacket(t, packet.IPProtocolTCP, "10.0.0.1", "10.0.0.2", 1, 2, "z")
	rev := buildPacket(t, packet.IPProtocolTCP, "10.0.0.2", "10.0.0.1", 2, 1, "z")
	other := buildPacket(t, packet.IPProtocolTCP, "10.0.0.3", "10.0.0.2", 1, 2, "z")
	if len(e.Match(fwd)) != 1 {
		t.Error("forward direction missed")
	}
	if len(e.Match(rev)) != 1 {
		t.Error("reverse direction missed")
	}
	if len(e.Match(other)) != 0 {
		t.Error("unrelated pair matched")
	}
}

// TestEngineStatsAccumulate: a shared engine keeps no counters of its
// own; scans and matches accumulate in the iotsec_ids_* metrics.
func TestEngineStatsAccumulate(t *testing.T) {
	e := NewEngine(nil)
	p := buildPacket(t, packet.IPProtocolTCP, "10.0.0.1", "10.0.0.2", 1, 2, "x")
	scanned0, matched0 := mPacketsScanned.Value(), mRuleMatches.Value()
	e.Match(p)
	e.Match(p)
	if scanned, matched := mPacketsScanned.Value()-scanned0, mRuleMatches.Value()-matched0; scanned != 2 || matched != 0 {
		t.Errorf("stats = %d %d", scanned, matched)
	}
}

// --- anomaly profile tests ---

func TestProfileRateAnomaly(t *testing.T) {
	p := NewProfile("cam1")
	base := time.Now()
	// Train at ~2 msg/s for 30 seconds.
	tick := base
	for i := 0; i < 60; i++ {
		p.ObserveMessage("hub", 80, "STATUS", tick)
		tick = tick.Add(500 * time.Millisecond)
	}
	p.EndTraining()
	if b := p.Baseline(); b < 1 || b > 3 {
		t.Fatalf("baseline = %.2f, want ~2", b)
	}
	// Burst at 100 msg/s: must flag.
	var flagged bool
	for i := 0; i < 300; i++ {
		for _, a := range p.ObserveMessage("hub", 80, "STATUS", tick) {
			if a.Kind == AnomalyRate {
				flagged = true
			}
		}
		tick = tick.Add(10 * time.Millisecond)
	}
	if !flagged {
		t.Error("rate burst not flagged")
	}
}

func TestProfileNewPeerAndPort(t *testing.T) {
	p := NewProfile("cam1")
	now := time.Now()
	p.ObserveMessage("hub", 80, "STATUS", now)
	p.EndTraining()
	anomalies := p.ObserveMessage("attacker", 23, "STATUS", now.Add(time.Second))
	kinds := map[AnomalyKind]bool{}
	for _, a := range anomalies {
		kinds[a.Kind] = true
	}
	if !kinds[AnomalyNewPeer] || !kinds[AnomalyNewPort] {
		t.Errorf("anomalies = %v", anomalies)
	}
	// Known peer+port stays quiet.
	if got := p.ObserveMessage("hub", 80, "STATUS", now.Add(2*time.Second)); len(got) != 0 {
		t.Errorf("false positives: %v", got)
	}
}

func TestProfileTransitionAnomaly(t *testing.T) {
	p := NewProfile("lock1")
	now := time.Now()
	// Normal pattern: STATUS, STATUS, ..., LOCK occasionally after
	// STATUS. UNLOCK never follows RELAY-ish commands.
	for i := 0; i < 200; i++ {
		p.ObserveMessage("hub", 80, "STATUS", now)
		if i%10 == 0 {
			p.ObserveMessage("hub", 80, "LOCK", now)
		}
	}
	p.EndTraining()
	// STATUS -> UNLOCK was never seen: improbable transition.
	p.ObserveMessage("hub", 80, "STATUS", now)
	anomalies := p.ObserveMessage("hub", 80, "UNLOCK", now)
	var flagged bool
	for _, a := range anomalies {
		if a.Kind == AnomalyTransition {
			flagged = true
		}
	}
	if !flagged {
		t.Errorf("unseen transition not flagged: %v", anomalies)
	}
	// Frequent transition STATUS->STATUS stays quiet.
	if got := p.ObserveMessage("hub", 80, "STATUS", now); hasKind(got, AnomalyTransition) {
		t.Errorf("common transition flagged: %v", got)
	}
}

func hasKind(as []Anomaly, k AnomalyKind) bool {
	for _, a := range as {
		if a.Kind == k {
			return true
		}
	}
	return false
}

func TestEngineLargePayloadScaling(t *testing.T) {
	// Smoke test: a big ruleset against a big payload terminates
	// quickly and correctly.
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		sb.WriteString(`alert tcp any any -> any 80 (msg:"r`)
		sb.WriteString(strings.Repeat("x", i%7))
		sb.WriteString(`"; content:"pattern`)
		sb.WriteString(string(rune('a' + i%26)))
		sb.WriteString(`"; sid:`)
		sb.WriteString(strings.Repeat("9", 1+i%3))
		sb.WriteString(`;)` + "\n")
	}
	rules, err := ParseRules(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(rules)
	payload := strings.Repeat("patterna filler ", 1000) + "patternz"
	p := buildPacket(t, packet.IPProtocolTCP, "10.0.0.1", "10.0.0.2", 1, 80, payload)
	alerts := e.Match(p)
	if len(alerts) == 0 {
		t.Error("no alerts on matching payload")
	}
	got := map[string]bool{}
	for _, a := range alerts {
		for _, c := range a.Rule.Contents {
			got[string(c.Pattern)] = true
		}
	}
	if !got["patterna"] || !got["patternz"] {
		t.Errorf("expected patterna and patternz hits, got %v", got)
	}
	if bytes.Contains([]byte(payload), []byte("patternb")) {
		t.Error("test payload unexpectedly contains patternb")
	}
}
