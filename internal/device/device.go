package device

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"iotsec/internal/envsim"
	"iotsec/internal/netsim"
	"iotsec/internal/packet"
)

// EventKind classifies device events the security plane consumes.
type EventKind string

// Event kinds.
const (
	EventAuthFailure    EventKind = "auth-failure"
	EventAuthSuccess    EventKind = "auth-success"
	EventBackdoorAccess EventKind = "backdoor-access"
	EventCommand        EventKind = "command"
	EventStateChange    EventKind = "state-change"
	EventSensor         EventKind = "sensor"
)

// Event is one security-relevant occurrence on a device.
type Event struct {
	Device string
	SKU    string
	Kind   EventKind
	Detail string
	When   time.Time
}

// EventSink receives device events (the context monitor registers
// one). Must not block.
type EventSink func(Event)

// Handler executes one management command against the device. The
// request has already passed (or legitimately bypassed) auth.
type Handler func(d *Device, req Request) Response

// Device is the common chassis all emulated devices share: a network
// stack, a management service with (optionally flawed) authentication,
// a state map, environment coupling and event emission. Concrete
// device types register command handlers and environment behavior on
// top.
type Device struct {
	Name    string
	Profile Profile

	stack *netsim.Stack
	env   *envsim.Environment

	mu         sync.RWMutex
	state      map[string]string
	handlers   map[string]Handler
	publicCmds map[string]bool   // commands served without auth
	creds      map[string]string // user → pass; empty with open access
	sink       EventSink
	tick       func(envsim.Snapshot)
	// failedLogins counts consecutive auth failures per source (for
	// brute-force visibility).
	failedLogins map[packet.IPv4Address]int
}

// New creates the device chassis and its network stack.
func New(name string, profile Profile, mac packet.MACAddress, ip packet.IPv4Address) *Device {
	d := &Device{
		Name:         name,
		Profile:      profile,
		stack:        netsim.NewStack(name, mac, ip),
		state:        make(map[string]string),
		handlers:     make(map[string]Handler),
		publicCmds:   make(map[string]bool),
		creds:        make(map[string]string),
		failedLogins: make(map[packet.IPv4Address]int),
	}
	// Seed credentials from the vulnerability profile.
	if detail := profile.VulnDetail(VulnDefaultCredentials); detail != "" {
		user, pass, _ := strings.Cut(detail, ":")
		d.creds[user] = pass
	}
	if detail := profile.VulnDetail(VulnWeakPassword); detail != "" {
		user, pass, _ := strings.Cut(detail, ":")
		d.creds[user] = pass
	}
	d.Handle("STATUS", func(d *Device, _ Request) Response {
		return Response{OK: true, Data: d.StateString()}
	})
	return d
}

// Stack exposes the device's network stack.
func (d *Device) Stack() *netsim.Stack { return d.stack }

// IP returns the device's address.
func (d *Device) IP() packet.IPv4Address { return d.stack.IP() }

// MAC returns the device's hardware address.
func (d *Device) MAC() packet.MACAddress { return d.stack.MAC() }

// Attach joins the fabric and starts the management service.
func (d *Device) Attach(n *netsim.Network) (*netsim.Port, error) {
	p := d.stack.Attach(n)
	if err := d.stack.Listen(MgmtPort, d.serveStream); err != nil {
		return nil, err
	}
	return p, nil
}

// BindEnvironment couples the device to the physical world; devices
// with per-tick behavior also get stepped by the environment.
func (d *Device) BindEnvironment(env *envsim.Environment) {
	d.mu.Lock()
	d.env = env
	tick := d.tick
	d.mu.Unlock()
	if tick != nil {
		env.AddObserver(func(s envsim.Snapshot, _ map[string]float64) { tick(s) })
	}
}

// Env returns the bound environment (nil if none).
func (d *Device) Env() *envsim.Environment {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.env
}

// OnTick registers per-step environment behavior; call before
// BindEnvironment.
func (d *Device) OnTick(fn func(envsim.Snapshot)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tick = fn
}

// SetEventSink wires event emission.
func (d *Device) SetEventSink(s EventSink) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.sink = s
}

// Emit publishes an event.
func (d *Device) Emit(kind EventKind, detail string) {
	d.mu.RLock()
	sink := d.sink
	d.mu.RUnlock()
	if sink != nil {
		sink(Event{Device: d.Name, SKU: d.Profile.SKU, Kind: kind, Detail: detail, When: time.Now()})
	}
}

// Handle registers a command handler.
func (d *Device) Handle(cmd string, h Handler) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.handlers[strings.ToUpper(cmd)] = h
}

// HandlePublic registers a handler served without authentication
// (models endpoints real firmware leaves open).
func (d *Device) HandlePublic(cmd string, h Handler) {
	d.mu.Lock()
	d.publicCmds[strings.ToUpper(cmd)] = true
	d.mu.Unlock()
	d.Handle(cmd, h)
}

// Get reads a state field.
func (d *Device) Get(key string) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.state[key]
}

// Set writes a state field, emitting a state-change event when the
// value changes.
func (d *Device) Set(key, value string) {
	d.mu.Lock()
	old := d.state[key]
	d.state[key] = value
	d.mu.Unlock()
	if old != value {
		d.Emit(EventStateChange, key+"="+value)
	}
}

// StateString renders the state map deterministically.
func (d *Device) StateString() string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	keys := make([]string, 0, len(d.state))
	for k := range d.state {
		keys = append(keys, k)
	}
	// Small maps: insertion sort keeps this dependency-free.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + d.state[k]
	}
	return strings.Join(parts, ",")
}

// serveStream handles one management connection.
func (d *Device) serveStream(st *netsim.Stream) {
	st.OnMessage(func(msg []byte) {
		resp := d.dispatch(st.RemoteIP(), msg)
		_ = st.Send(resp.Encode())
	})
}

// dispatch authenticates and executes one request.
func (d *Device) dispatch(src packet.IPv4Address, raw []byte) Response {
	req, err := ParseRequest(raw)
	if err != nil {
		return Response{OK: false, Data: "bad request"}
	}

	// Backdoor: a magic token as the first argument bypasses auth
	// entirely (and betrays itself only as an event, as on real
	// devices where only the vendor knows).
	if token := d.Profile.VulnDetail(VulnBackdoor); token != "" &&
		len(req.Args) > 0 && req.Args[len(req.Args)-1] == token {
		req.Args = req.Args[:len(req.Args)-1]
		d.Emit(EventBackdoorAccess, req.Cmd)
		return d.execute(req)
	}

	d.mu.RLock()
	public := d.publicCmds[req.Cmd]
	d.mu.RUnlock()
	if public {
		return d.execute(req)
	}

	if !d.authorize(src, req) {
		d.Emit(EventAuthFailure, fmt.Sprintf("src=%s cmd=%s user=%s", src, req.Cmd, req.User))
		return Response{OK: false, Data: "unauthorized"}
	}
	return d.execute(req)
}

// authorize applies the device's (possibly broken) authentication.
func (d *Device) authorize(src packet.IPv4Address, req Request) bool {
	if d.Profile.HasVuln(VulnOpenAccess) {
		return true // no credentials at all
	}
	d.mu.RLock()
	pass, userKnown := d.creds[req.User]
	d.mu.RUnlock()
	if userKnown && pass == req.Pass {
		d.mu.Lock()
		d.failedLogins[src] = 0
		d.mu.Unlock()
		d.Emit(EventAuthSuccess, "user="+req.User)
		return true
	}
	d.mu.Lock()
	d.failedLogins[src]++
	d.mu.Unlock()
	return false
}

// execute runs the handler for an authorized request.
func (d *Device) execute(req Request) Response {
	d.mu.RLock()
	h := d.handlers[req.Cmd]
	d.mu.RUnlock()
	if h == nil {
		return Response{OK: false, Data: "unknown command " + req.Cmd}
	}
	d.Emit(EventCommand, req.Cmd)
	return h(d, req)
}

// Stop shuts the device down.
func (d *Device) Stop() { d.stack.Stop() }
