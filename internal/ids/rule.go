// Package ids implements the signature and anomaly detection engines
// the µmboxes embed: a Snort-dialect rule language with an
// Aho-Corasick multi-pattern content matcher, plus per-device
// behavioral profiles (rates, peers, command transitions) for anomaly
// detection — the two standard approaches §4 of the paper builds on.
package ids

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"iotsec/internal/packet"
)

// Action is what a rule does on match.
type Action string

// Rule actions.
const (
	ActionAlert Action = "alert"
	ActionBlock Action = "block"
	ActionPass  Action = "pass"
)

// Proto restricts a rule to a transport.
type Proto string

// Rule protocols.
const (
	ProtoTCP Proto = "tcp"
	ProtoUDP Proto = "udp"
	ProtoIP  Proto = "ip"
)

// AddrSpec is an IP predicate: any, exact, or CIDR prefix.
type AddrSpec struct {
	Any    bool
	IP     packet.IPv4Address
	Prefix uint8
}

// Matches applies the predicate.
func (a AddrSpec) Matches(ip packet.IPv4Address) bool {
	if a.Any {
		return true
	}
	p := a.Prefix
	if p == 0 {
		p = 32
	}
	mask := ^uint32(0)
	if p < 32 {
		mask <<= 32 - p
	}
	w := uint32(a.IP[0])<<24 | uint32(a.IP[1])<<16 | uint32(a.IP[2])<<8 | uint32(a.IP[3])
	g := uint32(ip[0])<<24 | uint32(ip[1])<<16 | uint32(ip[2])<<8 | uint32(ip[3])
	return w&mask == g&mask
}

// PortSpec is a port predicate: any or exact.
type PortSpec struct {
	Any  bool
	Port uint16
}

// Matches applies the predicate.
func (p PortSpec) Matches(port uint16) bool { return p.Any || p.Port == port }

// Content is one payload pattern predicate.
type Content struct {
	Pattern []byte
	NoCase  bool
	// Negated inverts the predicate: the pattern must NOT appear.
	Negated bool
	// Offset skips this many payload bytes before searching.
	Offset int
	// Depth bounds the search to this many bytes from Offset
	// (0 = to the end).
	Depth int
}

// DsizeOp compares payload length.
type DsizeOp int

// Dsize comparators.
const (
	_ DsizeOp = iota // the zero value: no dsize predicate
	DsizeEq
	DsizeGT
	DsizeLT
)

// Dsize is a payload-length predicate.
type Dsize struct {
	Op DsizeOp
	N  int
}

// Matches applies the predicate.
func (d Dsize) Matches(payloadLen int) bool {
	switch d.Op {
	case DsizeEq:
		return payloadLen == d.N
	case DsizeGT:
		return payloadLen > d.N
	case DsizeLT:
		return payloadLen < d.N
	default:
		return true
	}
}

// Rule is one parsed signature.
type Rule struct {
	Action   Action
	Proto    Proto
	SrcIP    AddrSpec
	SrcPort  PortSpec
	DstIP    AddrSpec
	DstPort  PortSpec
	Bidir    bool // "<>" matches either direction
	Msg      string
	SID      int
	Contents []Content
	Dsize    Dsize
}

// ErrBadRule reports a parse failure.
var ErrBadRule = errors.New("ids: malformed rule")

// ParseRule parses one rule line of the dialect:
//
//	alert tcp any any -> 10.0.0.0/24 80 (msg:"admin login"; content:"admin"; nocase; sid:1001;)
//
// Comment lines (#...) and blank lines yield (nil, nil).
func ParseRule(line string) (*Rule, error) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return nil, nil
	}
	head, opts, hasOpts := strings.Cut(line, "(")
	fields := strings.Fields(head)
	if len(fields) != 7 {
		return nil, fmt.Errorf("%w: want 'action proto src sport dir dst dport (...)', got %q", ErrBadRule, line)
	}
	r := &Rule{}
	switch Action(fields[0]) {
	case ActionAlert, ActionBlock, ActionPass:
		r.Action = Action(fields[0])
	default:
		return nil, fmt.Errorf("%w: action %q", ErrBadRule, fields[0])
	}
	switch Proto(fields[1]) {
	case ProtoTCP, ProtoUDP, ProtoIP:
		r.Proto = Proto(fields[1])
	default:
		return nil, fmt.Errorf("%w: proto %q", ErrBadRule, fields[1])
	}
	var err error
	if r.SrcIP, err = parseAddr(fields[2]); err != nil {
		return nil, err
	}
	if r.SrcPort, err = parsePort(fields[3]); err != nil {
		return nil, err
	}
	switch fields[4] {
	case "->":
	case "<>":
		r.Bidir = true
	default:
		return nil, fmt.Errorf("%w: direction %q", ErrBadRule, fields[4])
	}
	if r.DstIP, err = parseAddr(fields[5]); err != nil {
		return nil, err
	}
	if r.DstPort, err = parsePort(fields[6]); err != nil {
		return nil, err
	}
	if hasOpts {
		if err := parseOptions(r, strings.TrimSuffix(strings.TrimSpace(opts), ")")); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func parseAddr(s string) (AddrSpec, error) {
	if s == "any" {
		return AddrSpec{Any: true}, nil
	}
	ipStr, prefixStr, hasPrefix := strings.Cut(s, "/")
	ip, ok := packet.ParseIPv4(ipStr)
	if !ok {
		return AddrSpec{}, fmt.Errorf("%w: address %q", ErrBadRule, s)
	}
	spec := AddrSpec{IP: ip, Prefix: 32}
	if hasPrefix {
		n, err := strconv.Atoi(prefixStr)
		if err != nil || n < 0 || n > 32 {
			return AddrSpec{}, fmt.Errorf("%w: prefix %q", ErrBadRule, s)
		}
		spec.Prefix = uint8(n)
	}
	return spec, nil
}

func parsePort(s string) (PortSpec, error) {
	if s == "any" {
		return PortSpec{Any: true}, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 || n > 65535 {
		return PortSpec{}, fmt.Errorf("%w: port %q", ErrBadRule, s)
	}
	return PortSpec{Port: uint16(n)}, nil
}

// parseOptions handles the parenthesized option list. Within
// content:"..." strings, escaped quotes (\") and semicolons are
// honored.
func parseOptions(r *Rule, s string) error {
	for _, opt := range splitOptions(s) {
		key, val, _ := strings.Cut(opt, ":")
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		switch key {
		case "msg":
			r.Msg = unquote(val)
		case "content":
			c := Content{}
			if rest, neg := strings.CutPrefix(strings.TrimSpace(val), "!"); neg {
				c.Negated = true
				val = rest
			}
			c.Pattern = []byte(unquote(val))
			if len(c.Pattern) == 0 {
				return fmt.Errorf("%w: empty content", ErrBadRule)
			}
			r.Contents = append(r.Contents, c)
		case "nocase":
			if len(r.Contents) == 0 {
				return fmt.Errorf("%w: nocase before any content", ErrBadRule)
			}
			last := &r.Contents[len(r.Contents)-1]
			last.NoCase = true
			last.Pattern = []byte(strings.ToLower(string(last.Pattern)))
		case "offset":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 || len(r.Contents) == 0 {
				return fmt.Errorf("%w: offset %q", ErrBadRule, val)
			}
			r.Contents[len(r.Contents)-1].Offset = n
		case "depth":
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 || len(r.Contents) == 0 {
				return fmt.Errorf("%w: depth %q", ErrBadRule, val)
			}
			r.Contents[len(r.Contents)-1].Depth = n
		case "dsize":
			d, err := parseDsize(val)
			if err != nil {
				return err
			}
			r.Dsize = d
		case "sid":
			n, err := strconv.Atoi(val)
			if err != nil {
				return fmt.Errorf("%w: sid %q", ErrBadRule, val)
			}
			r.SID = n
		case "rev", "classtype", "priority", "reference":
			// Accepted and ignored: common in real rulesets.
		case "":
			// trailing semicolon
		default:
			return fmt.Errorf("%w: unknown option %q", ErrBadRule, key)
		}
	}
	return nil
}

// parseDsize parses "N", ">N" or "<N".
func parseDsize(val string) (Dsize, error) {
	op := DsizeEq
	switch {
	case strings.HasPrefix(val, ">"):
		op = DsizeGT
		val = val[1:]
	case strings.HasPrefix(val, "<"):
		op = DsizeLT
		val = val[1:]
	}
	n, err := strconv.Atoi(strings.TrimSpace(val))
	if err != nil || n < 0 {
		return Dsize{}, fmt.Errorf("%w: dsize %q", ErrBadRule, val)
	}
	return Dsize{Op: op, N: n}, nil
}

// splitOptions splits on semicolons outside quoted strings.
func splitOptions(s string) []string {
	var out []string
	var cur strings.Builder
	inQuote := false
	escaped := false
	for _, c := range s {
		switch {
		case escaped:
			cur.WriteRune(c)
			escaped = false
		case c == '\\' && inQuote:
			cur.WriteRune(c)
			escaped = true
		case c == '"':
			inQuote = !inQuote
			cur.WriteRune(c)
		case c == ';' && !inQuote:
			if t := strings.TrimSpace(cur.String()); t != "" {
				out = append(out, t)
			}
			cur.Reset()
		default:
			cur.WriteRune(c)
		}
	}
	if t := strings.TrimSpace(cur.String()); t != "" {
		out = append(out, t)
	}
	return out
}

// unquote strips surrounding quotes and unescapes \" and \\.
func unquote(s string) string {
	s = strings.TrimSpace(s)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		s = s[1 : len(s)-1]
	}
	s = strings.ReplaceAll(s, `\"`, `"`)
	s = strings.ReplaceAll(s, `\\`, `\`)
	return s
}

// ParseRules parses a whole ruleset, skipping blanks and comments.
func ParseRules(text string) ([]*Rule, error) {
	var rules []*Rule
	for i, line := range strings.Split(text, "\n") {
		r, err := ParseRule(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
		if r != nil {
			rules = append(rules, r)
		}
	}
	return rules, nil
}

// String renders the rule back into (canonical) dialect form.
func (r *Rule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %s %s ", r.Action, r.Proto, addrString(r.SrcIP), portString(r.SrcPort))
	if r.Bidir {
		b.WriteString("<> ")
	} else {
		b.WriteString("-> ")
	}
	fmt.Fprintf(&b, "%s %s (", addrString(r.DstIP), portString(r.DstPort))
	if r.Msg != "" {
		fmt.Fprintf(&b, "msg:%q; ", r.Msg)
	}
	for _, c := range r.Contents {
		if c.Negated {
			fmt.Fprintf(&b, "content:!%q; ", string(c.Pattern))
		} else {
			fmt.Fprintf(&b, "content:%q; ", string(c.Pattern))
		}
		if c.NoCase {
			b.WriteString("nocase; ")
		}
		if c.Offset > 0 {
			fmt.Fprintf(&b, "offset:%d; ", c.Offset)
		}
		if c.Depth > 0 {
			fmt.Fprintf(&b, "depth:%d; ", c.Depth)
		}
	}
	switch r.Dsize.Op {
	case DsizeEq:
		fmt.Fprintf(&b, "dsize:%d; ", r.Dsize.N)
	case DsizeGT:
		fmt.Fprintf(&b, "dsize:>%d; ", r.Dsize.N)
	case DsizeLT:
		fmt.Fprintf(&b, "dsize:<%d; ", r.Dsize.N)
	}
	fmt.Fprintf(&b, "sid:%d;)", r.SID)
	return b.String()
}

func addrString(a AddrSpec) string {
	if a.Any {
		return "any"
	}
	if a.Prefix != 0 && a.Prefix != 32 {
		return fmt.Sprintf("%s/%d", a.IP, a.Prefix)
	}
	return a.IP.String()
}

func portString(p PortSpec) string {
	if p.Any {
		return "any"
	}
	return strconv.Itoa(int(p.Port))
}
