package ids

import (
	"bytes"
	"slices"
)

// ahoCorasick is a multi-pattern string matcher: all patterns are
// compiled into one automaton and every payload byte is examined once
// regardless of ruleset size — the property that keeps per-µmbox IDS
// cheap enough to run per device (§5.2).
type ahoCorasick struct {
	// next[state][b] is the goto function (dense: byte-indexed).
	next [][256]int32
	// fail[state] is the failure link.
	fail []int32
	// output[state] lists pattern indices ending at this state.
	output [][]int
}

// trieStates counts the states the patterns' trie will have: the root
// plus one per distinct non-empty prefix. In sorted order each pattern
// adds exactly the bytes beyond what it shares with its predecessor.
// The summed pattern length would be a bound too, but signatures for
// one SKU share prefixes, and a dense row reserved is a row resident.
func trieStates(patterns [][]byte) int {
	sorted := slices.Clone(patterns)
	slices.SortFunc(sorted, bytes.Compare)
	states := 1
	var prev []byte
	for _, pat := range sorted {
		shared := 0
		for shared < len(pat) && shared < len(prev) && pat[shared] == prev[shared] {
			shared++
		}
		states += len(pat) - shared
		prev = pat
	}
	return states
}

// newAhoCorasick compiles the automaton from the given patterns.
func newAhoCorasick(patterns [][]byte) *ahoCorasick {
	// Sized up front, so the 1 KB rows are not copied on every
	// append-doubling while the trie grows.
	states := trieStates(patterns)
	ac := &ahoCorasick{
		next:   make([][256]int32, 1, states),
		fail:   make([]int32, 1, states),
		output: make([][]int, 1, states),
	}
	for i := range ac.next[0] {
		ac.next[0][i] = -1
	}
	// Build the trie.
	for idx, pat := range patterns {
		state := int32(0)
		for _, b := range pat {
			if ac.next[state][b] == -1 {
				ac.next = append(ac.next, [256]int32{})
				for i := range ac.next[len(ac.next)-1] {
					ac.next[len(ac.next)-1][i] = -1
				}
				ac.fail = append(ac.fail, 0)
				ac.output = append(ac.output, nil)
				ac.next[state][b] = int32(len(ac.next) - 1)
			}
			state = ac.next[state][b]
		}
		ac.output[state] = append(ac.output[state], idx)
	}
	// BFS to compute failure links and convert to a full goto
	// function.
	queue := make([]int32, 0, len(ac.next))
	for b := 0; b < 256; b++ {
		if s := ac.next[0][b]; s == -1 {
			ac.next[0][b] = 0
		} else {
			ac.fail[s] = 0
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		state := queue[0]
		queue = queue[1:]
		for b := 0; b < 256; b++ {
			s := ac.next[state][b]
			if s == -1 {
				ac.next[state][b] = ac.next[ac.fail[state]][b]
				continue
			}
			ac.fail[s] = ac.next[ac.fail[state]][b]
			ac.output[s] = append(ac.output[s], ac.output[ac.fail[s]]...)
			queue = append(queue, s)
		}
	}
	return ac
}

// scanInto runs the automaton over data, recording first-seen patterns
// and per-rule hit counts in the pooled scratch, allocation-free.
func (e *Engine) scanInto(data []byte, s *matchScratch) {
	ac := e.ac
	state := int32(0)
	for _, b := range data {
		state = ac.next[state][b]
		for _, idx := range ac.output[state] {
			if s.patSeen[idx] {
				continue
			}
			s.patSeen[idx] = true
			s.touchedPats = append(s.touchedPats, int32(idx))
			ri := e.patIndex[idx].rule
			if s.ruleHits[ri] == 0 {
				s.touchedRul = append(s.touchedRul, ri)
			}
			s.ruleHits[ri]++
		}
	}
}
