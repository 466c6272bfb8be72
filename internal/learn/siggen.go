package learn

import (
	"errors"
	"fmt"
	"math"

	"iotsec/internal/netsim"
	"iotsec/internal/packet"
)

// Signature generation (§4.1): the paper's repository shares
// "traces or signatures". This distills captured attack traffic into
// a content signature automatically: the most frequent attack n-gram
// that never appears in benign traffic toward the same device. A
// deployment that caught an exploit once can publish a working rule
// without a human reverse-engineering the payload.

// ErrNoDistinctiveToken reports that attack and benign traffic cannot
// be separated by any n-gram at the tried lengths.
var ErrNoDistinctiveToken = errors.New("learn: no distinctive token separates attack from benign traffic")

// GenerateSignatureToken finds a byte token (longest first, down to
// minLen) that appears in at least minSupport fraction of the attack
// payloads and in none of the benign payloads.
func GenerateSignatureToken(attack, benign [][]byte, maxLen, minLen int, minSupport float64) ([]byte, error) {
	if len(attack) == 0 {
		return nil, fmt.Errorf("%w: no attack payloads", ErrNoDistinctiveToken)
	}
	if maxLen <= 0 {
		maxLen = 16
	}
	if minLen <= 0 {
		minLen = 4
	}
	if minSupport <= 0 {
		minSupport = 0.8
	}
	benignSet := buildGramIndex(benign, minLen, maxLen)

	for n := maxLen; n >= minLen; n-- {
		// Count attack-payload support per n-gram (each payload
		// contributes each distinct gram once).
		support := make(map[string]int)
		for _, p := range attack {
			seen := make(map[string]bool)
			for i := 0; i+n <= len(p); i++ {
				g := string(p[i : i+n])
				if !seen[g] {
					seen[g] = true
					support[g]++
				}
			}
		}
		need := int(math.Ceil(minSupport * float64(len(attack))))
		if need < 1 {
			need = 1
		}
		var best string
		bestCount := 0
		for g, c := range support {
			if c < need || benignSet[g] {
				continue
			}
			if c > bestCount || (c == bestCount && g < best) {
				best, bestCount = g, c
			}
		}
		if bestCount > 0 {
			return []byte(best), nil
		}
	}
	return nil, ErrNoDistinctiveToken
}

// buildGramIndex collects every n-gram of each length present in the
// corpus.
func buildGramIndex(corpus [][]byte, minLen, maxLen int) map[string]bool {
	idx := make(map[string]bool)
	for _, p := range corpus {
		for n := minLen; n <= maxLen; n++ {
			for i := 0; i+n <= len(p); i++ {
				idx[string(p[i:i+n])] = true
			}
		}
	}
	return idx
}

// escapeRuleContent renders a token safely for the ids rule dialect
// (quotes and backslashes escaped; non-printable bytes reject the
// token — the dialect carries text patterns).
func escapeRuleContent(token []byte) (string, error) {
	out := make([]byte, 0, len(token)+4)
	for _, b := range token {
		switch {
		case b == '"':
			out = append(out, '\\', '"')
		case b == '\\':
			out = append(out, '\\', '\\')
		case b == '\n' || b == ';':
			return "", fmt.Errorf("learn: token contains unescapable byte %q", b)
		case b < 32 || b > 126:
			return "", fmt.Errorf("learn: token contains non-printable byte 0x%02x", b)
		}
		if b != '"' && b != '\\' {
			out = append(out, b)
		}
	}
	return string(out), nil
}

// GenerateRule distills captured traffic into an ids-dialect block
// rule for the device's management port.
func GenerateRule(attack, benign [][]byte, msg string, sid int) (string, error) {
	token, err := GenerateSignatureToken(attack, benign, 16, 4, 0.8)
	if err != nil {
		return "", err
	}
	content, err := escapeRuleContent(token)
	if err != nil {
		// Fall back to a shorter printable token.
		token, err2 := GenerateSignatureToken(attack, benign, 8, 4, 0.8)
		if err2 != nil {
			return "", err
		}
		content, err = escapeRuleContent(token)
		if err != nil {
			return "", err
		}
	}
	return fmt.Sprintf(`block tcp any any -> any 80 (msg:%q; content:"%s"; sid:%d;)`, msg, content, sid), nil
}

// MgmtPayloadsFrom extracts TCP management payloads addressed to the
// device from a capture — the input GenerateRule wants — restricted to
// one source address (how a post-incident analysis separates the
// attacker's traffic from everyone else's; the zero address matches
// any source).
func MgmtPayloadsFrom(frames []netsim.CapturedFrame, deviceIP, srcIP packet.IPv4Address) [][]byte {
	return mgmtPayloads(frames, deviceIP, func(src packet.IPv4Address) bool {
		return srcIP.IsZero() || src == srcIP
	})
}

// MgmtPayloadsExcluding extracts management payloads to the device
// from every source EXCEPT the given one — the benign pool for
// signature distillation.
func MgmtPayloadsExcluding(frames []netsim.CapturedFrame, deviceIP, excludeSrc packet.IPv4Address) [][]byte {
	return mgmtPayloads(frames, deviceIP, func(src packet.IPv4Address) bool {
		return src != excludeSrc
	})
}

func mgmtPayloads(frames []netsim.CapturedFrame, deviceIP packet.IPv4Address, srcOK func(packet.IPv4Address) bool) [][]byte {
	var out [][]byte
	for _, cf := range frames {
		p := packet.Decode(cf.Data, packet.LayerTypeEthernet)
		ip := p.IPv4()
		tcp := p.TCP()
		if ip == nil || tcp == nil || ip.DstIP != deviceIP || !srcOK(ip.SrcIP) {
			continue
		}
		if payload := tcp.LayerPayload(); len(payload) > 0 {
			cp := make([]byte, len(payload))
			copy(cp, payload)
			out = append(out, cp)
		}
	}
	return out
}
