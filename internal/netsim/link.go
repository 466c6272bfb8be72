package netsim

// LinkOptions is empty: every wire delivers at once, with no loss.
// It stays only because the benchmark module (bench/, a module of its
// own) passes LinkOptions{} to Network.Connect; when it stops, the type
// and the parameter go.
type LinkOptions struct{}

// Link is a bidirectional wire between two ports.
type Link struct {
	a, b *Port
}

func newLink(a, b *Port) *Link {
	l := &Link{a: a, b: b}
	a.link.Store(l)
	b.link.Store(l)
	return l
}

// peer returns the end of the link that is not p.
func (l *Link) peer(p *Port) *Port {
	if l.a == p {
		return l.b
	}
	return l.a
}
