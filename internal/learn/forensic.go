package learn

import (
	"fmt"
	"strings"

	"iotsec/internal/journal"
)

// ForensicChain is a journal timeline re-expressed in attack-graph
// vocabulary: the observed offensive moves (what the attacker / the
// anomaly evidence shows happening) and the defensive mitigations the
// platform answered with. It bridges the §4.2 model-library view
// (predicted attacks) and the journal's forensic view (observed
// attacks): the same AttackStep/Mitigation types render both, so a
// predicted path and a reconstructed incident can be compared
// side-by-side.
type ForensicChain struct {
	TraceID uint64
	// Observed is the detection-side evidence as attack steps.
	Observed []AttackStep
	// Applied is the enforcement the platform answered with.
	Applied []Mitigation
	// Complete mirrors Timeline.Complete: the loop closed.
	Complete bool
}

// FromTimeline translates one reconstructed journal timeline into an
// attack-graph chain. Detection-stage events become observed steps
// (anomalies and alerts as exploit evidence, device events as
// commands); controller/µmbox enforcement events become mitigations.
func FromTimeline(t *journal.Timeline) *ForensicChain {
	c := &ForensicChain{TraceID: t.TraceID, Complete: t.Complete()}
	for _, e := range t.Events {
		switch e.Type {
		case journal.TypeAnomaly, journal.TypeAlert:
			c.Observed = append(c.Observed, AttackStep{Kind: StepExploit, Device: e.Device})
		case journal.TypeDeviceEvent:
			c.Observed = append(c.Observed, AttackStep{Kind: StepCommand, Device: e.Device, Cmd: firstWord(e.Detail)})
		case journal.TypeFlowMod, journal.TypeMboxReconfig, journal.TypePosture:
			c.Applied = append(c.Applied, Mitigation{Device: e.Device, Cmd: string(e.Type)})
		}
	}
	return c
}

// firstWord trims a detail line to its leading token (the event kind
// or command name), dropping the ":"-separated tail.
func firstWord(detail string) string {
	if i := strings.IndexAny(detail, ": "); i >= 0 {
		return detail[:i]
	}
	return detail
}

// String renders the chain: the observed path in the attack-graph
// notation, then the mitigations.
func (c *ForensicChain) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %d observed: %s", c.TraceID, PathString(c.Observed))
	if len(c.Applied) > 0 {
		b.WriteString("\n  mitigated by:")
		for _, m := range c.Applied {
			fmt.Fprintf(&b, " %s(%s)", m.Cmd, m.Device)
		}
	}
	if c.Complete {
		b.WriteString("\n  loop closed (detect -> policy -> enforce)")
	}
	return b.String()
}
