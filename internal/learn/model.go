// Package learn implements §4.2 of the paper: a library of abstract
// per-class device models (simple FSMs with environment effects and
// observations), a model-fuzzing engine that discovers cross-device
// interactions — including the implicit ones coupled through the
// physical environment — and attack-graph search that turns those
// interactions plus per-device vulnerabilities into concrete
// multi-stage attack paths (e.g., compromise the plug, heat the room,
// watch the window open).
package learn

import (
	"fmt"
	"sort"
	"strings"
)

// Effect is an environment write a model state holds while active:
// "while the bulb is on, light=lit".
type Effect struct {
	Var   string
	Level string
}

// Observation is a sensor rule: "when temperature=high, transition to
// state open" (used by autonomous devices like IFTTT-driven windows
// or alarms).
type Observation struct {
	Var     string
	Level   string
	ToState string
}

// Model is an abstract device class: states, command transitions,
// environment effects per state, and observation-driven transitions.
// Models are deliberately simple — the paper's point is that
// class-level models (toaster, bulb) suffice to reason about
// interaction spaces without per-SKU fidelity.
type Model struct {
	Class   string
	States  []string
	Initial string
	// Transitions: command → (fromState → toState).
	Transitions map[string]map[string]string
	// Effects the device exerts while in a state.
	Effects map[string][]Effect
	// Observations fire at each world step.
	Observations []Observation
}

// Commands lists the model's command vocabulary, sorted.
func (m *Model) Commands() []string {
	out := make([]string, 0, len(m.Transitions))
	for c := range m.Transitions {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Validate checks internal consistency.
func (m *Model) Validate() error {
	states := map[string]bool{}
	for _, s := range m.States {
		states[s] = true
	}
	if !states[m.Initial] {
		return fmt.Errorf("learn: model %s: initial state %q undeclared", m.Class, m.Initial)
	}
	for cmd, trans := range m.Transitions {
		for from, to := range trans {
			if !states[from] || !states[to] {
				return fmt.Errorf("learn: model %s: transition %s: %s->%s uses undeclared state", m.Class, cmd, from, to)
			}
		}
	}
	for _, o := range m.Observations {
		if !states[o.ToState] {
			return fmt.Errorf("learn: model %s: observation -> %q undeclared", m.Class, o.ToState)
		}
	}
	return nil
}

// Library is the community-maintained model collection the paper
// envisions.
type Library struct {
	models map[string]*Model
}

// NewLibrary returns an empty library.
func NewLibrary() *Library { return &Library{models: make(map[string]*Model)} }

// Add registers a model after validation.
func (l *Library) Add(m *Model) error {
	if err := m.Validate(); err != nil {
		return err
	}
	l.models[m.Class] = m
	return nil
}

// Get looks up a model by class.
func (l *Library) Get(class string) (*Model, bool) {
	m, ok := l.models[class]
	return m, ok
}

// StandardLibrary builds models for the smart-home classes the
// paper's scenarios use.
func StandardLibrary() *Library {
	l := NewLibrary()
	must := func(m *Model) {
		if err := l.Add(m); err != nil {
			panic(err)
		}
	}
	must(&Model{
		Class:   "bulb",
		States:  []string{"off", "on"},
		Initial: "off",
		Transitions: map[string]map[string]string{
			"ON":  {"off": "on", "on": "on"},
			"OFF": {"on": "off", "off": "off"},
		},
		Effects: map[string][]Effect{"on": {{Var: "light", Level: "lit"}}},
	})
	must(&Model{
		Class:   "light-sensor",
		States:  []string{"dark", "lit"},
		Initial: "dark",
		Observations: []Observation{
			{Var: "light", Level: "lit", ToState: "lit"},
			{Var: "light", Level: "dark", ToState: "dark"},
		},
	})
	must(&Model{
		Class:   "plug",
		States:  []string{"off", "on"},
		Initial: "off",
		Transitions: map[string]map[string]string{
			"ON":  {"off": "on", "on": "on"},
			"OFF": {"on": "off", "off": "off"},
		},
		// The plug powers an appliance that heats (the oven of Fig 5).
		Effects: map[string][]Effect{"on": {{Var: "temperature", Level: "high"}}},
	})
	must(&Model{
		Class:   "ac",
		States:  []string{"off", "cooling"},
		Initial: "cooling",
		Transitions: map[string]map[string]string{
			"ON":  {"off": "cooling", "cooling": "cooling"},
			"OFF": {"cooling": "off", "off": "off"},
		},
		Effects: map[string][]Effect{"cooling": {{Var: "temperature", Level: "normal"}}},
	})
	must(&Model{
		// IFTTT-driven window: opens autonomously when hot (the §2.1
		// attack chain), plus explicit commands.
		Class:   "window",
		States:  []string{"closed", "open"},
		Initial: "closed",
		Transitions: map[string]map[string]string{
			"OPEN":  {"closed": "open", "open": "open"},
			"CLOSE": {"open": "closed", "closed": "closed"},
		},
		Effects: map[string][]Effect{"open": {{Var: "window", Level: "open"}}},
		Observations: []Observation{
			{Var: "temperature", Level: "high", ToState: "open"},
		},
	})
	must(&Model{
		Class:   "fire-alarm",
		States:  []string{"ok", "alarm"},
		Initial: "ok",
		Transitions: map[string]map[string]string{
			"SILENCE": {"alarm": "ok", "ok": "ok"},
			"TEST":    {"ok": "alarm", "alarm": "alarm"},
		},
		Observations: []Observation{
			{Var: "smoke", Level: "yes", ToState: "alarm"},
		},
		Effects: map[string][]Effect{"alarm": {{Var: "alarm_sounding", Level: "yes"}}},
	})
	must(&Model{
		Class:   "oven",
		States:  []string{"off", "baking"},
		Initial: "off",
		Transitions: map[string]map[string]string{
			"ON":  {"off": "baking", "baking": "baking"},
			"OFF": {"baking": "off", "off": "off"},
		},
		Effects: map[string][]Effect{"baking": {
			{Var: "temperature", Level: "high"},
			{Var: "smoke", Level: "yes"},
		}},
	})
	must(&Model{
		Class:   "lock",
		States:  []string{"locked", "unlocked"},
		Initial: "locked",
		Transitions: map[string]map[string]string{
			"LOCK":   {"unlocked": "locked", "locked": "locked"},
			"UNLOCK": {"locked": "unlocked", "unlocked": "unlocked"},
		},
		Effects: map[string][]Effect{"unlocked": {{Var: "door", Level: "unlocked"}}},
	})
	return l
}

// Instance is one deployed model with its current state.
type Instance struct {
	Name  string
	Model *Model
	State string
}

// World is the abstract closed-loop of instances and discrete
// environment variables: the substrate §4.2's fuzzing explores.
type World struct {
	instances []*Instance
	byName    map[string]*Instance
	env       map[string]string
	// defaults restore env variables not currently driven by any
	// effect (e.g., the room cools back to normal once nothing heats
	// it).
	defaults map[string]string
}

// NewWorld builds a world with the given default environment levels.
func NewWorld(envDefaults map[string]string) *World {
	w := &World{
		byName:   make(map[string]*Instance),
		env:      make(map[string]string),
		defaults: make(map[string]string, len(envDefaults)),
	}
	for k, v := range envDefaults {
		w.env[k] = v
		w.defaults[k] = v
	}
	return w
}

// AddInstance deploys a model under a name.
func (w *World) AddInstance(name string, m *Model) *Instance {
	inst := &Instance{Name: name, Model: m, State: m.Initial}
	w.instances = append(w.instances, inst)
	w.byName[name] = inst
	return inst
}

// Instance looks an instance up.
func (w *World) Instance(name string) (*Instance, bool) {
	i, ok := w.byName[name]
	return i, ok
}

// Instances lists deployment names, in insertion order.
func (w *World) Instances() []string {
	out := make([]string, len(w.instances))
	for i, inst := range w.instances {
		out[i] = inst.Name
	}
	return out
}

// Env reads an environment level.
func (w *World) Env(name string) string { return w.env[name] }

// SetEnv writes an environment level (scenario scripting).
func (w *World) SetEnv(name, level string) { w.env[name] = level }

// Command applies a command to an instance; unknown commands or
// commands without a transition from the current state are no-ops
// returning false.
func (w *World) Command(device, cmd string) bool {
	inst, ok := w.byName[device]
	if !ok {
		return false
	}
	trans, ok := inst.Model.Transitions[cmd]
	if !ok {
		return false
	}
	to, ok := trans[inst.State]
	if !ok {
		return false
	}
	inst.State = to
	return true
}

// Step advances the world: effects write the environment (variables
// with no active effect fall back to their defaults), then
// observations fire. One step propagates one hop of an interaction
// chain; run several steps to settle.
func (w *World) Step() {
	// Recompute environment from defaults + active effects.
	next := make(map[string]string, len(w.env))
	for k, v := range w.defaults {
		next[k] = v
	}
	// Preserve scripted variables that have no default.
	for k, v := range w.env {
		if _, ok := next[k]; !ok {
			next[k] = v
		}
	}
	for _, inst := range w.instances {
		for _, e := range inst.Model.Effects[inst.State] {
			next[e.Var] = e.Level
		}
	}
	w.env = next
	// Observations act on the settled environment.
	for _, inst := range w.instances {
		for _, o := range inst.Model.Observations {
			if w.env[o.Var] == o.Level {
				inst.State = o.ToState
			}
		}
	}
}

// Snapshot captures instance states and env levels.
func (w *World) Snapshot() map[string]string {
	out := make(map[string]string, len(w.instances)+len(w.env))
	for _, inst := range w.instances {
		out["dev:"+inst.Name] = inst.State
	}
	for k, v := range w.env {
		out["env:"+k] = v
	}
	return out
}

// Reset restores every instance to its initial state and the
// environment to its defaults.
func (w *World) Reset() {
	for _, inst := range w.instances {
		inst.State = inst.Model.Initial
	}
	w.env = make(map[string]string, len(w.defaults))
	for k, v := range w.defaults {
		w.env[k] = v
	}
}

// Key renders the snapshot as a stable string (search node identity).
func (w *World) Key() string {
	snap := w.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(snap[k])
		b.WriteByte(';')
	}
	return b.String()
}
