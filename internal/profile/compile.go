package profile

import (
	"iotsec/internal/openflow"
	"iotsec/internal/packet"
)

// Flow-rule priorities for profile enforcement. The deny floor sits
// above per-device tunnel steering (150–220) and ordinary forwarding
// (50) but below quarantine drops (400): an enforced device keeps its
// allowlist until the posture plane quarantines it outright, at which
// point nothing passes.
const (
	// PriorityDeny is the per-device drop-all floor.
	PriorityDeny uint16 = 250
	// PriorityAllow is where per-service allow rules start.
	PriorityAllow uint16 = 300
	// PriorityInfra is for ARP and other per-device infrastructure
	// allows that every profiled device needs regardless of services.
	PriorityInfra uint16 = 310
)

// CookieTag is the high byte ('P') of every profile-owned flow-rule
// cookie, mirroring the quarantine plane's 'Q' tag, so profile rules
// are identifiable and bulk-deletable on the switch.
const CookieTag = 0x50

// Cookie derives the profile-plane cookie for a device MAC.
func Cookie(mac packet.MACAddress) uint64 {
	return openflow.ClassCookie(CookieTag, mac)
}

// Compile lowers an accepted profile into the default-deny flow rules
// for one concrete device: a MAC-keyed drop floor in both directions,
// ARP infrastructure allows, and one allow rule per authorized
// service. Every allow conjoins the device MAC with its registered
// address — privilege is pinned to identity, so a device that hops to
// another source address falls through to the deny floor with the
// profile still intact.
func Compile(p *Profile, id Identity) []*openflow.FlowMod {
	cookie := Cookie(id.MAC)
	add := func(match openflow.Match, priority uint16, actions ...openflow.Action) *openflow.FlowMod {
		return &openflow.FlowMod{
			Command:  openflow.FlowAdd,
			Match:    match,
			Priority: priority,
			Actions:  actions,
			Cookie:   cookie,
		}
	}
	withARP := func(m openflow.Match) openflow.Match {
		m.Wildcards &^= openflow.WEtherType
		m.EtherType = packet.EtherTypeARP
		return m
	}

	mods := []*openflow.FlowMod{
		// Deny floor: everything to or from the device MAC drops
		// unless a higher-priority allow matches (no actions = drop).
		add(openflow.MatchAll().WithEthSrc(id.MAC), PriorityDeny),
		add(openflow.MatchAll().WithEthDst(id.MAC), PriorityDeny),
		// ARP must flow both ways or the device cannot resolve (or be
		// resolved by) any authorized peer.
		add(withARP(openflow.MatchAll().WithEthSrc(id.MAC)), PriorityInfra, openflow.Flood()),
		add(withARP(openflow.MatchAll().WithEthDst(id.MAC)), PriorityInfra, openflow.Flood()),
	}

	for _, s := range p.Services {
		proto := packet.IPProtocolTCP
		if s.Proto == "udp" {
			proto = packet.IPProtocolUDP
		}
		if s.Initiated {
			// Outbound request: device identity → remote:port.
			out := openflow.MatchAll().
				WithEthSrc(id.MAC).WithSrcIP(id.IP, 32).
				WithProto(proto).WithTpDst(s.Port)
			// Inbound reply: remote:port → device identity.
			in := openflow.MatchAll().
				WithEthDst(id.MAC).WithDstIP(id.IP, 32).
				WithProto(proto).WithTpSrc(s.Port)
			if r, pinned := s.RemoteIP(); pinned {
				out = out.WithDstIP(r, 32)
				in = in.WithSrcIP(r, 32)
			}
			mods = append(mods,
				add(out, PriorityAllow, openflow.Flood()),
				add(in, PriorityAllow, openflow.Flood()))
		} else {
			// Inbound request: anyone → device identity at its port.
			in := openflow.MatchAll().
				WithEthDst(id.MAC).WithDstIP(id.IP, 32).
				WithProto(proto).WithTpDst(s.Port)
			// Outbound reply: device identity from its port.
			out := openflow.MatchAll().
				WithEthSrc(id.MAC).WithSrcIP(id.IP, 32).
				WithProto(proto).WithTpSrc(s.Port)
			mods = append(mods,
				add(in, PriorityAllow, openflow.Flood()),
				add(out, PriorityAllow, openflow.Flood()))
		}
	}
	return mods
}
