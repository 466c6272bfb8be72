// Per-SKU signature sets. §4 makes the SKU — not the device — the unit
// signatures are crowd-sourced for, so the SKU is also the unit they
// are compiled for: every device of a SKU runs the same rules, and an
// ids.Engine is immutable once built, so one engine per rule-set
// generation serves all of them. A generation ends when
// AddSignatureRule installs a new rule; the next IDS element built for
// the SKU compiles the next one.
package core

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"iotsec/internal/ids"
	"iotsec/internal/policy"
)

// skuSignatures is one SKU's signature set. Guarded by Platform.mu.
type skuSignatures struct {
	// rules is append-only; texts remembers the normalized rule texts
	// already installed so replayed/backfilled community signatures
	// install idempotently.
	rules []*ids.Rule
	texts map[string]bool
	// compiled yields the current generation's engine, building it on
	// first call — outside Platform.mu: a compile takes 1–19 ms, and
	// concurrent appliers of one SKU wait for the one build instead of
	// each doing it. Nil between an AddSignatureRule and the next IDS
	// element built for the SKU.
	compiled func() *ids.Engine
}

// sku returns the SKU's entry, creating it. Callers hold p.mu.
func (p *Platform) sku(sku string) *skuSignatures {
	s := p.signatures[sku]
	if s == nil {
		s = &skuSignatures{texts: make(map[string]bool)}
		p.signatures[sku] = s
	}
	return s
}

// engineFor returns the engine every IDS element of the SKU shares,
// compiling the current rule-set generation if nobody has yet.
func (p *Platform) engineFor(sku string) *ids.Engine {
	p.mu.Lock()
	s := p.sku(sku)
	if s.compiled == nil {
		// Capped at its length: rules installed later append past it.
		rules := s.rules[:len(s.rules):len(s.rules)]
		s.compiled = sync.OnceValue(func() *ids.Engine { return ids.NewEngine(rules) })
	}
	compiled := s.compiled
	p.mu.Unlock()
	return compiled()
}

// AddSignatureRule installs a detection rule for a SKU (what a
// sigrepo subscription delivers) and re-applies postures of affected
// devices so running IDS elements pick up the new generation's engine.
// Installing a rule that is already present for the SKU is a no-op
// (idempotent), so cursor replays and reconnect backfills from the
// repository never duplicate IDS rules or trigger spurious
// reconfigurations.
func (p *Platform) AddSignatureRule(sku, ruleText string) error {
	r, err := ids.ParseRule(ruleText)
	if err != nil {
		return err
	}
	if r == nil {
		return fmt.Errorf("core: empty rule for %s", sku)
	}
	norm := strings.TrimSpace(ruleText)
	p.mu.Lock()
	s := p.sku(sku)
	if s.texts[norm] {
		p.mu.Unlock()
		mSigRulesDup.Inc()
		return nil
	}
	s.texts[norm] = true
	s.rules = append(s.rules, r)
	s.compiled = nil
	mSigRulesAdded.Inc()
	var affected []string
	for name, m := range p.devices {
		if m.Device.Profile.SKU == sku {
			affected = append(affected, name)
		}
	}
	p.mu.Unlock()
	// Each device's posture is read when it is re-applied, not here: one
	// that a concurrent isolate replaced must not be put back.
	for _, name := range affected {
		p.enforce(context.Background(), name, reapply, policy.Posture{}, 0)
	}
	return nil
}
