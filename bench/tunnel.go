package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"iotsec/internal/device"
	"iotsec/internal/netsim"
	"iotsec/internal/packet"
)

// tunnel is the data-plane workload: one client issues management
// requests through switch → µmbox → device on the same gateway, with
// the southbound session attached but idle. The control plane does
// nothing; packet, openflow table, netsim ports, µmbox pipeline and ids
// do all of it.
type tunnel struct {
	g *gateway
	// intruder is the host the factory-credential requests come from. A
	// refused request leaves a half-open stream on the device (the proxy
	// resets the client side only); from a host of their own those can
	// never collide with the administrator's ephemeral ports when they
	// wrap.
	intruder *netsim.Stack
	rng      *rand.Rand
	rec      *recorder
}

func (t *tunnel) setup(seed int64) error {
	g, err := buildGateway()
	if err != nil {
		return err
	}
	t.g = g
	t.rng = rand.New(rand.NewSource(seed))
	t.intruder = g.attachHost("intruder", packet.IPv4Address{10, 0, 0, 66})
	// One refused request per device, so the intruder's ARP exchanges
	// are done before anything is timed.
	for _, m := range g.cams {
		req := device.Request{Cmd: "SNAPSHOT", User: "admin", Pass: "admin"}
		if resp, err := g.call(nil, 0, 0, t.intruder, m, req); !rightOutcome(req, false, resp, err) {
			return fmt.Errorf("factory credentials were not refused at %s", m.Device.Name)
		}
	}
	return nil
}

// next draws one request from the seeded mix: 70% STATUS and 20%
// SNAPSHOT with the administrator's credentials (must succeed), 10%
// with the factory admin/admin (the proxy must refuse).
func (t *tunnel) next() (req device.Request, wantOK bool) {
	switch roll := t.rng.Intn(10); {
	case roll < 7:
		return device.Request{Cmd: "STATUS", User: adminUser, Pass: adminPass}, true
	case roll < 9:
		return device.Request{Cmd: "SNAPSHOT", User: adminUser, Pass: adminPass}, true
	default:
		return device.Request{Cmd: "SNAPSHOT", User: "admin", Pass: "admin"}, false
	}
}

// rightOutcome checks one reply against what the mix expects.
func rightOutcome(req device.Request, wantOK bool, resp device.Response, err error) bool {
	if !wantOK {
		return err != nil // refused: the proxy reset the session
	}
	if err != nil || !resp.OK {
		return false
	}
	if req.Cmd == "SNAPSHOT" {
		return strings.HasPrefix(resp.Data, "jpeg:")
	}
	return strings.Contains(resp.Data, "recording=on")
}

func (t *tunnel) run(d time.Duration, rec bool) *window {
	w := newWindow()
	g := t.g
	begin := time.Now()
	var r *recorder
	if rec {
		if t.rec == nil {
			t.rec = newRecorder(begin, 0)
		}
		r = t.rec
	}
	w.open()
	deadline := begin.Add(d)
	for {
		m := g.cams[t.rng.Intn(len(g.cams))]
		req, wantOK := t.next()
		trace := r.cycle()
		start := time.Now()
		root := r.open(trace, "cycle", start)
		from := g.client
		if !wantOK {
			from = t.intruder
		}
		resp, err := g.call(r, trace, root, from, m, req)
		end := time.Now()
		r.end(root, end)
		if end.After(deadline) {
			break
		}
		w.attempted++
		if !rightOutcome(req, wantOK, resp, err) {
			w.fail("%s %s as %s: want ok=%v, got %+v, %v", req.Cmd, m.Device.Name, req.User, wantOK, resp, err)
			continue
		}
		if !wantOK {
			w.counts["refused"]++
		}
		w.samples = append(w.samples, sample{at: int64(end.Sub(begin)), lat: int64(end.Sub(start))})
	}
	w.close(time.Since(begin))
	return w
}

func (t *tunnel) layers(traced *window, m metrics) {
	frame, err := t.g.frameTo(t.g.cams[0], device.Request{Cmd: "STATUS", User: adminUser, Pass: adminPass}.Encode())
	if err != nil {
		return
	}
	t.g.dataPlaneProbes(t.rec, frame, m)
}

func (t *tunnel) verify(windows ...*window) []string {
	var bad []string
	if n := t.g.quarantineEntries(); n != 0 {
		bad = append(bad, fmt.Sprintf("%d quarantine entries in the switch table of a workload that never quarantines", n))
	}
	for _, w := range windows {
		if w.attempted > 100 && w.counts["refused"] == 0 {
			bad = append(bad, "no factory-credential request was refused: the proxy is not on the path")
		}
	}
	return bad
}

func (t *tunnel) recorders() []*recorder { return []*recorder{t.rec} }

func (t *tunnel) close() {
	if t.g != nil {
		t.g.close()
	}
}
