package profile

import (
	"net/http"

	"iotsec/internal/telemetry"
)

// Report is the /debug/profiles document: the accepted profile set,
// enforcement roster, recent violations, and engine counters.
type Report struct {
	Profiles   []*Profile  `json:"profiles"`
	Enforced   []string    `json:"enforced"`
	Violations []Violation `json:"violations"`
	Rogues     []string    `json:"rogues"`
	Stats      EngineStats `json:"stats"`
}

// Snapshot assembles the report.
func (e *Engine) Snapshot() Report {
	return Report{
		Profiles:   e.Profiles(),
		Enforced:   e.EnforcedDevices(),
		Violations: e.Violations(),
		Rogues:     e.Rogues(),
		Stats:      e.Stats(),
	}
}

// Handler serves the report as JSON (mounted at /debug/profiles; read
// by `mboxctl profiles`).
func (e *Engine) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		telemetry.WriteJSON(w, e.Snapshot())
	})
}
