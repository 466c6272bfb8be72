package journal

import (
	"fmt"
	"sort"
	"strings"
)

// Timeline is the causally ordered reconstruction of one trace: every
// journal event that shares the trace ID, oldest first. It is the
// operational form of the paper's §4 attack-chain story — "which
// sensor reading caused which rules and which µmbox swap".
type Timeline struct {
	TraceID uint64  `json:"trace_id"`
	Events  []Event `json:"events"`
}

// Reconstruct assembles the timeline for one trace ID from a set of
// events (e.g. a journal snapshot), sorting by sequence number.
func Reconstruct(events []Event, traceID uint64) *Timeline {
	t := &Timeline{TraceID: traceID}
	for _, e := range events {
		if e.TraceID == traceID {
			t.Events = append(t.Events, e)
		}
	}
	sort.Slice(t.Events, func(i, j int) bool { return t.Events[i].Seq < t.Events[j].Seq })
	return t
}

// Stage buckets event types into the Figure 2 loop stages used for
// chain rendering and completeness checks.
func Stage(t Type) string {
	switch t {
	case TypeDeviceEvent, TypeAnomaly, TypeAlert:
		return "detect"
	case TypeViewChange, TypePosture:
		return "policy"
	case TypeFlowMod, TypeFlowApplied:
		return "controller"
	case TypeMboxBoot, TypeMboxReconfig:
		return "mbox"
	case TypeSigPublish, TypeSigVote:
		return "sigrepo"
	default:
		return "other"
	}
}

// Complete reports whether the timeline closes the Figure 2 loop
// (LoopClosed).
func (t *Timeline) Complete() bool { return LoopClosed(t.Events) }

// What "complete" means depends on who asks. The three answers, over
// one chain's events in journal order:
//
//   - LoopClosed, the forensic question "did the loop close": a
//     detection, a policy transition and an enforcement action (a flow
//     rule or a µmbox change) are all present.
//   - FailoverClosed, the same question for a controller failover: the
//     failover → rehomed → recovered sequence, in order.
//   - SLOMissing, the stricter SLO question "is the latency sample
//     final": the µmbox pipeline was reconfigured AND, if the posture
//     emitted flow rules at all, a switch acknowledged applying them.
//     A chain that closed the loop with a flow-mod on the wire is
//     forensically complete and still owes the SLO its flow-applied.

// LoopClosed reports whether events close the Figure 2 loop.
func LoopClosed(events []Event) bool {
	var detect, policy, enforce bool
	for _, e := range events {
		switch Stage(e.Type) {
		case "detect":
			detect = true
		case "policy":
			policy = true
		case "controller", "mbox":
			enforce = true
		}
	}
	return detect && policy && enforce
}

// FailoverClosed reports whether events carry failover → rehomed →
// recovered, in that order.
func FailoverClosed(events []Event) bool {
	want := []Type{TypeCtrlFailover, TypeCtrlRehomed, TypeCtrlRecovered}
	i := 0
	for _, e := range events {
		if i < len(want) && e.Type == want[i] {
			i++
		}
	}
	return i == len(want)
}

// SLOMissing names the first canonical stage a detect→enforce chain
// still owes before its latency sample is final ("" once it is):
// FLOW_MODs are journaled before the µmbox reconfig, so when the
// reconfig arrives the chain already shows whether to wait for a
// flow-applied. With flow-mods on the wire and no acknowledgment the
// missing stage is flow-applied even if the reconfig landed: the
// network half of the enforcement is the part that is missing.
func SLOMissing(events []Event) Type {
	has := func(t Type) bool {
		for _, e := range events {
			if e.Type == t {
				return true
			}
		}
		return false
	}
	switch flowOwed := has(TypeFlowMod) && !has(TypeFlowApplied); {
	case has(TypeMboxReconfig) && !flowOwed:
		return ""
	case !has(TypePosture):
		return TypePosture
	case flowOwed:
		return TypeFlowApplied
	}
	return TypeMboxReconfig
}

// Chain renders the causal chain in one line:
//
//	anomaly(wemo) -> posture(wemo) -> flow-mod(wemo) -> mbox-reconfig(wemo)
func (t *Timeline) Chain() string {
	parts := make([]string, 0, len(t.Events))
	for _, e := range t.Events {
		if e.Device != "" {
			parts = append(parts, string(e.Type)+"("+e.Device+")")
		} else {
			parts = append(parts, string(e.Type))
		}
	}
	return strings.Join(parts, " -> ")
}

// Render produces the multi-line forensic report: per-event offsets
// from the first event, severities and details.
func (t *Timeline) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %d: %d events", t.TraceID, len(t.Events))
	if t.Complete() {
		b.WriteString(" (complete detect->policy->enforce chain)")
	}
	b.WriteByte('\n')
	if len(t.Events) == 0 {
		return b.String()
	}
	base := t.Events[0].Mono
	for _, e := range t.Events {
		fmt.Fprintf(&b, "  +%-12s %-10s %-13s %-12s %s\n",
			(e.Mono - base).String(), "["+e.Severity.String()+"]", e.Type, e.Device, e.Detail)
	}
	return b.String()
}
