package mbox

import (
	"sync"

	"iotsec/internal/device"
)

// PasswordProxy is the Figure 4 µmbox: it "patches" a device whose
// factory credentials cannot be changed. Clients must present the
// administrator-chosen credentials; the proxy rewrites accepted
// requests to carry the device's factory credentials (so the device
// accepts them) and tears down unauthorized sessions with a forged
// RST. The hardcoded password still exists on the device — but nothing
// carrying it from the network ever reaches the device unless it came
// through the proxy's check.
type PasswordProxy struct {
	mu sync.RWMutex
	// required is what clients must present.
	requiredUser, requiredPass string
	// factory is what the device actually accepts.
	factoryUser, factoryPass string

	accepted, rejected uint64
}

// NewPasswordProxy builds the proxy.
//
// requiredUser/requiredPass: the new administrator-chosen credentials.
// factoryUser/factoryPass: the device's unremovable factory account.
func NewPasswordProxy(requiredUser, requiredPass, factoryUser, factoryPass string) *PasswordProxy {
	return &PasswordProxy{
		requiredUser: requiredUser, requiredPass: requiredPass,
		factoryUser: factoryUser, factoryPass: factoryPass,
	}
}

// Name implements Element.
func (p *PasswordProxy) Name() string { return "password-proxy" }

// SetCredentials rotates the administrator credentials live.
func (p *PasswordProxy) SetCredentials(user, pass string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.requiredUser, p.requiredPass = user, pass
}

// Counters reports accepted and rejected requests.
func (p *PasswordProxy) Counters() (accepted, rejected uint64) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.accepted, p.rejected
}

// Process implements Element.
func (p *PasswordProxy) Process(ctx *Context) Verdict {
	if ctx.Dir != ToDevice {
		return Forward
	}
	tcp := ctx.Packet.TCP()
	if tcp == nil || tcp.DstPort != device.MgmtPort || len(tcp.LayerPayload()) == 0 {
		return Forward // handshake segments, ACKs, other ports
	}
	req, err := device.ParseRequest(tcp.LayerPayload())
	if err != nil {
		return Forward // not management protocol; other elements decide
	}

	p.mu.RLock()
	okCreds := req.User == p.requiredUser && req.Pass == p.requiredPass
	factoryUser, factoryPass := p.factoryUser, p.factoryPass
	p.mu.RUnlock()

	if !okCreds {
		p.mu.Lock()
		p.rejected++
		p.mu.Unlock()
		return refuse(ctx)
	}

	// Authorized: translate to the factory credentials the device
	// still demands.
	req.User, req.Pass = factoryUser, factoryPass
	frame, err := rewriteTCPPayload(ctx.Packet, req.Encode())
	if err != nil {
		return Drop
	}
	p.mu.Lock()
	p.accepted++
	p.mu.Unlock()
	ctx.Frame = frame
	ctx.Reparse = true
	return Forward
}

// ContextGate is the Figure 5 µmbox: it blocks specific management
// commands to a device unless the controller-supplied context
// predicate approves. The controller wires Allowed to its global view
// (e.g., "person in the room"), updating the gate as the world
// changes.
type ContextGate struct {
	mu sync.RWMutex
	// guarded maps command → whether it is currently allowed; the
	// predicate answers for guarded commands.
	guarded map[string]bool
	// Allowed decides whether a guarded command may pass right now.
	allowed func(cmd string) bool
	// OnBlock is notified of enforcement actions; may be nil.
	OnBlock func(cmd string)

	blocked uint64
}

// NewContextGate guards the given commands with the predicate.
func NewContextGate(allowed func(cmd string) bool, guardedCmds ...string) *ContextGate {
	g := &ContextGate{guarded: make(map[string]bool), allowed: allowed}
	for _, c := range guardedCmds {
		g.guarded[c] = true
	}
	return g
}

// Name implements Element.
func (g *ContextGate) Name() string { return "context-gate" }

// SetPredicate swaps the context predicate live.
func (g *ContextGate) SetPredicate(allowed func(cmd string) bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.allowed = allowed
}

// Blocked reports enforcement count.
func (g *ContextGate) Blocked() uint64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.blocked
}

// Process implements Element.
func (g *ContextGate) Process(ctx *Context) Verdict {
	if ctx.Dir != ToDevice {
		return Forward
	}
	tcp := ctx.Packet.TCP()
	if tcp == nil || tcp.DstPort != device.MgmtPort || len(tcp.LayerPayload()) == 0 {
		return Forward
	}
	req, err := device.ParseRequest(tcp.LayerPayload())
	if err != nil {
		return Forward
	}
	g.mu.RLock()
	isGuarded := g.guarded[req.Cmd]
	allowed := g.allowed
	onBlock := g.OnBlock
	g.mu.RUnlock()
	if !isGuarded || (allowed != nil && allowed(req.Cmd)) {
		return Forward
	}
	g.mu.Lock()
	g.blocked++
	g.mu.Unlock()
	if onBlock != nil {
		onBlock(req.Cmd)
	}
	return refuse(ctx)
}
