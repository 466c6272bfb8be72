package experiment

import (
	"fmt"
	"runtime"
	"time"

	"iotsec/internal/attack"
	"iotsec/internal/core"
	"iotsec/internal/device"
	"iotsec/internal/mbox"
	"iotsec/internal/netsim"
	"iotsec/internal/packet"
	"iotsec/internal/policy"
)

// rawLab is an undefended deployment: devices and an attacker on one
// plain switch, each attachment pinned to its port — "the current
// world" halves of Figures 4 and 5.
type rawLab struct {
	net      *netsim.Network
	sw       *netsim.Switch
	attacker *attack.Attacker
	hosts    []*netsim.Stack
	devices  []*device.Device
}

func newRawLab() *rawLab {
	l := &rawLab{
		net: netsim.NewNetwork(),
		sw:  netsim.NewSwitch("uplink", 1),
	}
	ip := packet.MustParseIPv4("10.0.0.66")
	st := netsim.NewStack("attacker", device.MACFor(ip), ip)
	l.sw.Attach(l.net, st.Attach(l.net), st.MAC())
	l.hosts = append(l.hosts, st)
	l.attacker = attack.NewAttacker(st)
	return l
}

func (l *rawLab) add(d *device.Device) error {
	p, err := d.Attach(l.net)
	if err != nil {
		return err
	}
	l.sw.Attach(l.net, p, d.MAC())
	l.devices = append(l.devices, d)
	return nil
}

// addHost attaches an extra plain host.
func (l *rawLab) addHost(ip string) *netsim.Stack {
	addr := packet.MustParseIPv4(ip)
	st := netsim.NewStack("host-"+ip, device.MACFor(addr), addr)
	l.sw.Attach(l.net, st.Attach(l.net), st.MAC())
	l.hosts = append(l.hosts, st)
	return st
}

func (l *rawLab) start() { l.net.Start() }
func (l *rawLab) stop() {
	for _, h := range l.hosts {
		h.Stop()
	}
	for _, d := range l.devices {
		d.Stop()
	}
	l.net.Stop()
}

// protectedLab is the same deployment behind IoTSec.
type protectedLab struct {
	platform *core.Platform
	attacker *attack.Attacker
	hosts    []*netsim.Stack
}

// newProtectedLab builds a platform with the given policy and the
// attacker attached.
func newProtectedLab(fsm *policy.FSM) (*protectedLab, error) {
	p, err := core.New(core.Options{Policy: fsm, BootTimeScale: 0.001})
	if err != nil {
		return nil, err
	}
	ip := packet.MustParseIPv4("10.0.0.66")
	st := netsim.NewStack("attacker", device.MACFor(ip), ip)
	p.AttachHost(st)
	return &protectedLab{
		platform: p,
		attacker: attack.NewAttacker(st),
		hosts:    []*netsim.Stack{st},
	}, nil
}

func (l *protectedLab) stop() {
	for _, h := range l.hosts {
		h.Stop()
	}
	l.platform.Stop()
}

// standardPosture returns the hardening posture IoTSec applies to a
// device class by default: a password proxy when the SKU has factory
// credentials, a stateful firewall plus DNS guard for resolver abuse,
// and an open-access gate (context gate denying all mutating
// commands) for credential-less devices.
func standardPosture(profile device.Profile) policy.Posture {
	var p policy.Posture
	if profile.HasVuln(device.VulnDefaultCredentials) || profile.HasVuln(device.VulnExposedKey) {
		p.Modules = append(p.Modules, policy.ModuleSpec{
			Kind:   "password-proxy",
			Config: map[string]string{"user": "homeadmin", "pass": "Str0ng!pass"},
		})
	}
	if profile.HasVuln(device.VulnOpenDNSResolver) {
		p.Modules = append(p.Modules, policy.ModuleSpec{Kind: "dns-guard"})
	}
	if profile.HasVuln(device.VulnOpenAccess) {
		// Mutating commands require explicit admin context; here we
		// simply block the dangerous verbs.
		p.BlockCommands = append(p.BlockCommands, "SET", "RELAY", "SET_CALIBRATION", "TUNE", "UPDATE", "SCAN_NET")
	}
	if profile.HasVuln(device.VulnBackdoor) {
		p.Modules = append(p.Modules, policy.ModuleSpec{Kind: "ids"})
	}
	if profile.HasVuln(device.VulnWeakPassword) {
		p.Modules = append(p.Modules, policy.ModuleSpec{Kind: "robot-check"})
	}
	p.Modules = append(p.Modules, policy.ModuleSpec{Kind: "stateful-fw"})
	return p
}

// policyFor builds a single-device always-on policy from the standard
// posture.
func policyFor(devName string, profile device.Profile) *policy.FSM {
	d := policy.NewDomain()
	d.AddDevice(devName)
	f := policy.NewFSM(d)
	f.AddRule(policy.Rule{
		Name:     "standard-" + devName,
		Device:   devName,
		Posture:  standardPosture(profile),
		Priority: 1,
	})
	return f
}

// policyForMany builds an always-on standard-posture policy over
// several devices.
func policyForMany(profiles map[string]device.Profile) *policy.FSM {
	d := policy.NewDomain()
	for name := range profiles {
		d.AddDevice(name)
	}
	f := policy.NewFSM(d)
	for name, profile := range profiles {
		f.AddRule(policy.Rule{
			Name:     "standard-" + name,
			Device:   name,
			Posture:  standardPosture(profile),
			Priority: 1,
		})
	}
	return f
}

// netsimStack builds a plain host stack at the address.
func netsimStack(name string, ip packet.IPv4Address) *netsim.Stack {
	return netsim.NewStack(name, device.MACFor(ip), ip)
}

// settle gives asynchronous plumbing a moment.
func settle() { time.Sleep(20 * time.Millisecond) }

// waitUntil polls cond to true within the timeout. The first couple of
// milliseconds are yield-spun so sub-millisecond events are observed
// promptly (time.Sleep rounds short waits up to the kernel tick); after
// that it degrades to millisecond sleeps until the deadline.
func waitUntil(cond func() bool, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	spinUntil := time.Now().Add(2 * time.Millisecond)
	for {
		if cond() {
			return true
		}
		now := time.Now()
		if now.After(deadline) {
			return false
		}
		if now.Before(spinUntil) {
			runtime.Gosched()
		} else {
			time.Sleep(time.Millisecond)
		}
	}
}

// mboxBootMillis formats a platform boot latency.
func mboxBootMillis(k mbox.PlatformKind) string {
	return fmt.Sprintf("%.0fms", float64(mbox.BootLatency(k))/float64(time.Millisecond))
}
