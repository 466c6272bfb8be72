package mbox

import (
	"strings"
	"testing"

	"iotsec/internal/journal"
)

// bombElement panics on every frame — a stand-in for a buggy
// micro-security-function that must never take the gateway down.
type bombElement struct{ name string }

func (b *bombElement) Name() string             { return b.name }
func (b *bombElement) Process(*Context) Verdict { panic("boom: " + b.name) }

// TestPipelinePanicFailClosed: a panicking element is contained and
// the frame is dropped (the pipeline's only stance), downstream
// elements never see it, and the panic is counted and journaled.
func TestPipelinePanicFailClosed(t *testing.T) {
	journalStart, _ := journal.Default.Stats()
	bomb := &bombElement{name: "bomb"}
	after := &staticElement{name: "after", verdict: Forward}
	p := NewPipeline(bomb, after)
	if v := p.Process(testCtx(t, ToDevice, "x", 80)); v != Drop {
		t.Errorf("verdict = %v, want Drop (fail-closed)", v)
	}
	if after.callCount() != 0 {
		t.Errorf("downstream element ran %d times after panic+drop", after.callCount())
	}
	stats := p.Stats()
	if stats[0].Panics != 1 || stats[0].Dropped != 1 {
		t.Errorf("bomb stats = %+v, want 1 panic, 1 drop", stats[0])
	}

	// The containment event lands in the forensic journal.
	found := false
	for _, e := range journal.Default.Snapshot(journal.Filter{Type: journal.TypeMboxPanic}) {
		if e.Seq > journalStart && strings.Contains(e.Detail, "bomb") && strings.Contains(e.Detail, "fail-closed") {
			found = true
		}
	}
	if !found {
		t.Error("no mbox-panic journal event for fail-closed containment")
	}
}
