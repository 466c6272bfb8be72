package packet

import "errors"

// ErrBufferTooLong guards against runaway serialization.
var ErrBufferTooLong = errors.New("packet: serialize buffer exceeds maximum packet size")

// MaxPacketSize bounds a single serialized packet (jumbo-frame scale).
const MaxPacketSize = 64 * 1024

// SerializeBuffer accumulates packet bytes with cheap prepends, so
// layers can be written innermost-first while each outer layer sees its
// full payload. The zero value is ready to use.
type SerializeBuffer struct {
	buf   []byte
	start int // index of first valid byte in buf
}

// NewSerializeBuffer returns a buffer with headroom for typical
// Ethernet/IPv4/TCP stacking.
func NewSerializeBuffer() *SerializeBuffer {
	const headroom = 128
	return &SerializeBuffer{buf: make([]byte, headroom, headroom+512), start: headroom}
}

// Bytes returns the current packet bytes. The slice is invalidated by
// the next Prepend/Append/Clear.
func (b *SerializeBuffer) Bytes() []byte { return b.buf[b.start:] }

// Len reports the current number of valid bytes.
func (b *SerializeBuffer) Len() int { return len(b.buf) - b.start }

// Clear resets the buffer to empty, retaining capacity.
func (b *SerializeBuffer) Clear() {
	const headroom = 128
	if cap(b.buf) < headroom {
		b.buf = make([]byte, headroom, headroom+512)
	}
	b.buf = b.buf[:headroom]
	b.start = headroom
}

// Prepend makes room for n bytes at the front and returns the slice to
// fill in. Contents of the returned slice are zeroed.
func (b *SerializeBuffer) Prepend(n int) ([]byte, error) {
	if b.Len()+n > MaxPacketSize {
		return nil, ErrBufferTooLong
	}
	if b.start < n {
		// Grow at the front: reallocate with fresh headroom.
		grow := n - b.start + 128
		nb := make([]byte, len(b.buf)+grow)
		copy(nb[grow:], b.buf)
		b.buf = nb
		b.start += grow
	}
	b.start -= n
	s := b.buf[b.start : b.start+n]
	for i := range s {
		s[i] = 0
	}
	return s, nil
}

// Append makes room for n bytes at the back and returns the slice to
// fill in. Contents of the returned slice are zeroed.
func (b *SerializeBuffer) Append(n int) ([]byte, error) {
	if b.Len()+n > MaxPacketSize {
		return nil, ErrBufferTooLong
	}
	old := len(b.buf)
	if cap(b.buf) >= old+n {
		b.buf = b.buf[:old+n]
	} else {
		nb := make([]byte, old+n, (old+n)*2)
		copy(nb, b.buf)
		b.buf = nb
	}
	s := b.buf[old:]
	for i := range s {
		s[i] = 0
	}
	return s, nil
}

// SerializeLayers clears b and serializes the given layers so that each
// earlier layer wraps the later ones: SerializeLayers(b, eth, ip, tcp,
// payload) produces eth(ip(tcp(payload))).
func SerializeLayers(b *SerializeBuffer, layers ...SerializableLayer) error {
	b.Clear()
	for i := len(layers) - 1; i >= 0; i-- {
		if err := layers[i].SerializeTo(b); err != nil {
			return err
		}
	}
	return nil
}
