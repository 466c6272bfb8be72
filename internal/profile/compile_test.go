package profile

import (
	"testing"

	"iotsec/internal/openflow"
	"iotsec/internal/packet"
)

// compiledTable applies the compiled mods to a fresh flow table the
// way a switch would.
func compiledTable(mods []*openflow.FlowMod) *openflow.FlowTable {
	tbl := openflow.NewFlowTable()
	for _, fm := range mods {
		tbl.Insert(openflow.FlowEntry{
			Match: fm.Match, Priority: fm.Priority,
			Actions: fm.Actions, Cookie: fm.Cookie,
		})
	}
	return tbl
}

func TestCompileRuleShape(t *testing.T) {
	id := camIdentity()
	p := &Profile{SKU: id.SKU, Version: 1, Services: []Service{
		{Proto: "udp", Port: 5683},
		{Proto: "udp", Port: 9000, Initiated: true, Remote: cloudIP.String()},
	}}
	mods := Compile(p, id)
	// 2 deny floor + 2 ARP + 2 per service.
	if len(mods) != 8 {
		t.Fatalf("compiled %d mods, want 8", len(mods))
	}
	var deny, infra, allow int
	for _, fm := range mods {
		if fm.Cookie != Cookie(id.MAC) {
			t.Errorf("cookie %#x, want %#x", fm.Cookie, Cookie(id.MAC))
		}
		switch fm.Priority {
		case PriorityDeny:
			deny++
			if len(fm.Actions) != 0 {
				t.Errorf("deny floor has actions: %v", fm.Actions)
			}
		case PriorityInfra:
			infra++
		case PriorityAllow:
			allow++
			if len(fm.Actions) == 0 {
				t.Error("allow rule with no actions")
			}
		default:
			t.Errorf("unexpected priority %d", fm.Priority)
		}
	}
	if deny != 2 || infra != 2 || allow != 4 {
		t.Fatalf("deny=%d infra=%d allow=%d, want 2/2/4", deny, infra, allow)
	}
	if Cookie(id.MAC)>>48 != CookieTag {
		t.Errorf("cookie tag byte = %#x", Cookie(id.MAC)>>48)
	}
}

// TestCompiledTableIdentityPinning is the data-plane half of the
// address-hop defense: the same switch table that floods the device's
// authorized, correctly-addressed traffic drops the identical service
// tuple the moment the source address is spoofed — privilege follows
// the registered identity, not whatever address a frame carries.
func TestCompiledTableIdentityPinning(t *testing.T) {
	id := camIdentity()
	p := &Profile{SKU: id.SKU, Version: 1, Services: []Service{
		{Proto: "udp", Port: 5683}, // served
		{Proto: "udp", Port: 9000, Initiated: true, Remote: cloudIP.String()}, // pinned check-in
	}}
	tbl := compiledTable(Compile(p, id))

	lookup := func(frame []byte) (openflow.FlowEntry, bool) {
		return tbl.Lookup(packet.Decode(frame, packet.LayerTypeEthernet), 1, len(frame))
	}
	allowed := func(frame []byte) bool {
		e, ok := lookup(frame)
		return ok && len(e.Actions) > 0
	}

	// Authorized traffic flows: served reply, pinned check-in, inbound
	// request to the served port, ARP both ways.
	if !allowed(udpFrame(t, camMAC, hostMAC, camIP, hostIP, 5683, 40000)) {
		t.Error("served reply dropped")
	}
	if !allowed(udpFrame(t, camMAC, hostMAC, camIP, cloudIP, 41000, 9000)) {
		t.Error("pinned cloud check-in dropped")
	}
	if !allowed(udpFrame(t, hostMAC, camMAC, hostIP, camIP, 40000, 5683)) {
		t.Error("inbound request to served port dropped")
	}
	if !allowed(arpFrame(t, camMAC, camIP, hostIP)) {
		t.Error("device ARP dropped")
	}

	// Address hop: same MAC, same authorized tuple, spoofed source
	// address → deny floor.
	hop := udpFrame(t, camMAC, hostMAC, plugIP, cloudIP, 41000, 9000)
	if e, ok := lookup(hop); !ok || e.Priority != PriorityDeny || len(e.Actions) != 0 {
		t.Errorf("address-hopped frame not pinned to the deny floor: %+v", e)
	}
	// Unauthorized service and unpinned remote both die on the floor.
	if allowed(udpFrame(t, camMAC, hostMAC, camIP, hostIP, 7000, 4444)) {
		t.Error("unauthorized service allowed")
	}
	if allowed(udpFrame(t, camMAC, hostMAC, camIP, hostIP, 41000, 9000)) {
		t.Error("check-in to a non-pinned endpoint allowed")
	}
	// Inbound junk toward the device also drops (deny floor on dst).
	if allowed(udpFrame(t, hostMAC, camMAC, hostIP, camIP, 40000, 2323)) {
		t.Error("inbound unauthorized port allowed")
	}
	// Traffic not touching the device misses the profile table
	// entirely (falls through to default forwarding).
	other := udpFrame(t, hostMAC, rogueMAC, hostIP, cloudIP, 1, 2)
	if _, ok := lookup(other); ok {
		t.Error("unrelated traffic caught by the device's profile rules")
	}
}

// TestCompileEmptyProfileDeniesEverything: a zero-service profile (a
// silent device) still compiles to a working deny floor + ARP.
func TestCompileEmptyProfileDeniesEverything(t *testing.T) {
	id := camIdentity()
	tbl := compiledTable(Compile(&Profile{SKU: id.SKU, Version: 1}, id))
	e, ok := tbl.Lookup(packet.Decode(udpFrame(t, camMAC, hostMAC, camIP, hostIP, 5683, 40000), packet.LayerTypeEthernet), 1, 60)
	if !ok || len(e.Actions) != 0 {
		t.Fatalf("silent-device traffic not denied: %+v ok=%v", e, ok)
	}
	if len(tbl.Entries()) != 4 {
		t.Errorf("empty profile compiled %d entries, want 4", len(tbl.Entries()))
	}
}
