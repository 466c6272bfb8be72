package telemetry

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// HealthState is a component's coarse condition. The numeric order is
// deliberate — Down < Degraded < Healthy — so the exported
// iotsec_component_health gauge reads naturally on a dashboard (2 is
// good, 0 is an outage) and matches resilience.State.
type HealthState int32

// Health states, worst first.
const (
	HealthDown     HealthState = 0
	HealthDegraded HealthState = 1
	HealthHealthy  HealthState = 2
)

// String renders the state for JSON and human output.
func (s HealthState) String() string {
	switch s {
	case HealthHealthy:
		return "healthy"
	case HealthDegraded:
		return "degraded"
	default:
		return "down"
	}
}

// MarshalJSON encodes the state as its string form.
func (s HealthState) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON parses the string form (clients decoding /readyz
// bodies need the round trip).
func (s *HealthState) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	switch name {
	case "healthy":
		*s = HealthHealthy
	case "degraded":
		*s = HealthDegraded
	default:
		*s = HealthDown
	}
	return nil
}

// HealthReporter is polled at probe/scrape time and returns the
// component's current state plus a short human reason ("" when
// healthy). Reporters must be cheap (a few atomic loads) and safe to
// call concurrently — they run on every /readyz probe and every
// metrics scrape.
type HealthReporter func() (HealthState, string)

// ComponentHealth is one component's evaluated status.
type ComponentHealth struct {
	Component string      `json:"component"`
	Critical  bool        `json:"critical"`
	State     HealthState `json:"state"`
	Reason    string      `json:"reason,omitempty"`
	// Since is when the component last changed state (as observed by
	// this registry — transitions between polls are invisible, which is
	// fine for a liveness plane that cares about sustained conditions).
	Since time.Time `json:"since"`
}

// healthEntry tracks one registered reporter plus the last observed
// state so Since can be computed on transition.
type healthEntry struct {
	critical bool
	reporter HealthReporter

	seen      bool
	lastState HealthState
	since     time.Time
}

// HealthRegistry aggregates per-component HealthReporters into the
// process's readiness signal. Components register once (idempotent by
// name: re-registering replaces the reporter, preserving transition
// history) and the registry polls them on demand.
type HealthRegistry struct {
	mu    sync.Mutex
	order []string
	comps map[string]*healthEntry
	now   func() time.Time // test seam
}

// NewHealthRegistry builds an empty health registry.
func NewHealthRegistry() *HealthRegistry {
	return &HealthRegistry{comps: make(map[string]*healthEntry), now: time.Now}
}

// Register installs (or replaces) a component's reporter. Critical
// components gate /readyz: any critical component reporting Down flips
// readiness to 503. Non-critical components are reported but do not
// gate.
func (h *HealthRegistry) Register(component string, critical bool, rep HealthReporter) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if e, ok := h.comps[component]; ok {
		e.critical = critical
		e.reporter = rep
		return
	}
	h.comps[component] = &healthEntry{critical: critical, reporter: rep}
	h.order = append(h.order, component)
}

// Snapshot polls every reporter and returns statuses in registration
// order, updating per-component transition times.
func (h *HealthRegistry) Snapshot() []ComponentHealth {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]ComponentHealth, 0, len(h.order))
	for _, name := range h.order {
		e := h.comps[name]
		state, reason := e.reporter()
		if !e.seen || state != e.lastState {
			e.seen = true
			e.lastState = state
			e.since = h.now()
		}
		out = append(out, ComponentHealth{
			Component: name,
			Critical:  e.critical,
			State:     state,
			Reason:    reason,
			Since:     e.since,
		})
	}
	return out
}

// Ready evaluates readiness: true unless some critical component is
// Down. The full component list is returned either way so /readyz can
// serve the detail.
func (h *HealthRegistry) Ready() (bool, []ComponentHealth) {
	comps := h.Snapshot()
	for _, c := range comps {
		if c.Critical && c.State == HealthDown {
			return false, comps
		}
	}
	return true, comps
}

// HealthJSON is the /readyz (and /healthz?verbose) response body.
type HealthJSON struct {
	Ready      bool              `json:"ready"`
	TakenAt    time.Time         `json:"taken_at"`
	Components []ComponentHealth `json:"components"`
}

// LivenessHandler serves /healthz: 200 as long as the process can
// answer HTTP at all. Liveness deliberately ignores component state —
// restarting a process because its southbound link is down would make
// the outage worse, not better; that belongs to readiness.
func (h *HealthRegistry) LivenessHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
}

// ReadinessHandler serves /readyz: 200 with the component detail when
// every critical component is up, 503 with the same JSON shape (so
// probes and humans see *which* component and why) when not.
func (h *HealthRegistry) ReadinessHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		ready, comps := h.Ready()
		if !ready {
			// The status goes out with the headers, so the type is set first.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		WriteJSON(w, HealthJSON{Ready: ready, TakenAt: time.Now(), Components: comps})
	})
}

// Health returns the registry's component-health aggregator. Every
// scrape of r additionally exposes one
// iotsec_component_health{component=...} gauge per registered
// component (0 down, 1 degraded, 2 healthy) and
// iotsec_component_critical{component=...} marking readiness-gating
// components.
func (r *Registry) Health() *HealthRegistry { return r.health }

// healthCollector emits the component gauges at scrape time.
func healthCollector(h *HealthRegistry) Collector {
	return func(emit func(name string, kind Kind, help string, labels Labels, value float64)) {
		for _, c := range h.Snapshot() {
			labels := Labels{{Key: "component", Value: c.Component}}
			emit("iotsec_component_health", KindGauge,
				"Component health (0 down, 1 degraded, 2 healthy).",
				labels, float64(c.State))
			crit := 0.0
			if c.Critical {
				crit = 1
			}
			emit("iotsec_component_critical", KindGauge,
				"Whether the component gates /readyz (1 critical).",
				labels, crit)
		}
	}
}
