// Package envsim simulates the physical environment that couples IoT
// devices implicitly (§2.1 of the paper: "IoT devices can also be
// coupled through the physical environment"). The environment is a set
// of named continuous variables advanced in discrete time steps by
// physics laws; actuators perturb variables, sensors read them, and
// observers watch for changes — exactly the side channel an attacker
// exploits when, e.g., turning off the A/C to heat the room until the
// windows open.
package envsim

import (
	"fmt"
	"sort"
	"sync"
)

// Standard variable names used by the built-in laws and devices.
// Environments are not limited to these.
const (
	VarTemperature = "temperature" // °C
	VarOutsideTemp = "outside_temperature"
	VarSmoke       = "smoke"     // concentration, 0..1
	VarLight       = "light"     // lux-ish, 0..1000
	VarOccupancy   = "occupancy" // people present, 0/1
	VarWindowOpen  = "window_open"
	VarPower       = "power_draw" // watts drawn in the home
)

// Law advances some part of the physics each step. It reads the
// pre-step snapshot and returns variable updates; all laws in a step
// observe the same snapshot (synchronous update), which keeps results
// independent of law registration order unless two laws write the same
// variable (later-registered wins — avoid that).
type Law struct {
	Name  string
	Apply func(snapshot Snapshot, dt float64) map[string]float64
}

// Snapshot is an immutable view of the environment at a step boundary.
type Snapshot struct {
	Tick int64
	vars map[string]float64
}

// Get reads a variable (zero if absent).
func (s Snapshot) Get(name string) float64 { return s.vars[name] }

// Has reports whether the variable exists.
func (s Snapshot) Has(name string) bool {
	_, ok := s.vars[name]
	return ok
}

// Names lists variables in sorted order.
func (s Snapshot) Names() []string {
	out := make([]string, 0, len(s.vars))
	for k := range s.vars {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Observer is notified after each step with the new snapshot and the
// set of variables that changed. Runs on the stepping goroutine.
type Observer func(s Snapshot, changed map[string]float64)

// Environment is the simulated physical world.
type Environment struct {
	mu        sync.RWMutex
	tick      int64
	vars      map[string]float64
	laws      []Law
	observers []Observer
	// StepSeconds is the simulated wall time per tick (default 1s).
	StepSeconds float64
}

// New creates an environment with the given initial variables.
func New(initial map[string]float64) *Environment {
	vars := make(map[string]float64, len(initial))
	for k, v := range initial {
		vars[k] = v
	}
	return &Environment{vars: vars, StepSeconds: 1}
}

// Set writes a variable immediately (actuator effect or scripted
// scenario input).
func (e *Environment) Set(name string, v float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.vars[name] = v
}

// Get reads a variable.
func (e *Environment) Get(name string) float64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.vars[name]
}

// Tick reports the current step count.
func (e *Environment) Tick() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.tick
}

// Snapshot captures the current state.
func (e *Environment) Snapshot() Snapshot {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.snapshotLocked()
}

func (e *Environment) snapshotLocked() Snapshot {
	cp := make(map[string]float64, len(e.vars))
	for k, v := range e.vars {
		cp[k] = v
	}
	return Snapshot{Tick: e.tick, vars: cp}
}

// AddLaw registers a physics law.
func (e *Environment) AddLaw(l Law) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.laws = append(e.laws, l)
}

// AddObserver registers a change observer.
func (e *Environment) AddObserver(o Observer) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.observers = append(e.observers, o)
}

// Step advances one tick: all laws see the same pre-step snapshot and
// their updates merge into the new state.
func (e *Environment) Step() Snapshot {
	e.mu.Lock()
	pre := e.snapshotLocked()
	changed := make(map[string]float64)
	for _, law := range e.laws {
		for k, v := range law.Apply(pre, e.StepSeconds) {
			if e.vars[k] != v {
				changed[k] = v
			}
			e.vars[k] = v
		}
	}
	e.tick++
	post := e.snapshotLocked()
	observers := e.observers
	e.mu.Unlock()

	for _, o := range observers {
		o(post, changed)
	}
	return post
}

// Run advances n ticks.
func (e *Environment) Run(n int) Snapshot {
	var s Snapshot
	for i := 0; i < n; i++ {
		s = e.Step()
	}
	return s
}

// String renders the current variables for diagnostics.
func (e *Environment) String() string {
	s := e.Snapshot()
	out := fmt.Sprintf("tick=%d", s.Tick)
	for _, name := range s.Names() {
		out += fmt.Sprintf(" %s=%.2f", name, s.Get(name))
	}
	return out
}
