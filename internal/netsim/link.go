package netsim

// LinkOptions is empty: every wire delivers at once, with no loss.
// It stays only because the benchmark module (bench/, a module of its
// own) passes LinkOptions{} to Network.Connect; when it stops, the type
// and the parameter go.
type LinkOptions struct{}

// Link is a bidirectional wire between two ports.
type Link struct {
	a, b *Port
	taps *tapSet
}

func newLink(a, b *Port, taps *tapSet) *Link {
	l := &Link{a: a, b: b, taps: taps}
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

// observe shows a frame crossing from src to dst to the taps and the
// fabric counters. The frame is handed over, not copied: Send's caller
// gave the buffer up, and every node treats what it receives as
// read-only, so one buffer can cross every hop — and reach every port
// of a flood — without the per-hop copy that used to be two thirds of
// the data plane's garbage.
func (l *Link) observe(src, dst *Port, frame Frame) {
	if l.taps != nil {
		l.taps.observe(src, dst, frame)
	}
	mFramesDelivered.Inc()
	mBytesDelivered.Add(uint64(len(frame)))
}
