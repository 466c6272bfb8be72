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

// deliver moves a frame from src's side to dst's inbox. The frame is
// handed over, not copied: Send's caller gave the buffer up, and every
// node treats what it receives as read-only, so one buffer can cross
// every hop — and reach every port of a flood — without the per-hop
// copy that used to be two thirds of the data plane's garbage.
func (l *Link) deliver(src, dst *Port, frame Frame) {
	if l.taps != nil {
		l.taps.observe(src, dst, frame)
	}
	mFramesDelivered.Inc()
	mBytesDelivered.Add(uint64(len(frame)))
	dst.enqueue(frame)
}
