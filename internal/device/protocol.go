// Package device emulates IoT devices at the network-protocol level:
// each device runs a management service on the simulated fabric (a
// simple line protocol over reliable streams, mirroring the HTTP-ish
// interfaces real devices expose) with the vulnerability classes of
// the paper's Table 1 baked in — hardcoded default credentials, fully
// open access, firmware-exposed keys, open DNS resolvers, and
// backdoors. Devices also couple to the simulated physical
// environment: actuators write environment variables, sensors read
// them.
package device

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"iotsec/internal/netsim"
	"iotsec/internal/packet"
)

// MgmtPort is the TCP port every device's management service listens
// on.
const MgmtPort = 80

// Protocol errors.
var (
	ErrBadRequest = errors.New("device: malformed request")
)

// Request is one management command.
//
// Wire form (one stream message):
//
//	IOT/1 <CMD> [args...]
//	auth: <user>:<pass>        (optional)
type Request struct {
	Cmd  string
	Args []string
	User string
	Pass string
}

// Encode renders the wire form.
func (r Request) Encode() []byte {
	var b strings.Builder
	b.WriteString("IOT/1 ")
	b.WriteString(r.Cmd)
	for _, a := range r.Args {
		b.WriteByte(' ')
		b.WriteString(a)
	}
	b.WriteByte('\n')
	if r.User != "" || r.Pass != "" {
		fmt.Fprintf(&b, "auth: %s:%s\n", r.User, r.Pass)
	}
	return []byte(b.String())
}

// ParseRequest decodes the wire form.
func ParseRequest(data []byte) (Request, error) {
	var r Request
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) == 0 {
		return r, ErrBadRequest
	}
	fields := strings.Fields(lines[0])
	if len(fields) < 2 || fields[0] != "IOT/1" {
		return r, fmt.Errorf("%w: %q", ErrBadRequest, lines[0])
	}
	r.Cmd = strings.ToUpper(fields[1])
	r.Args = fields[2:]
	for _, line := range lines[1:] {
		if creds, ok := strings.CutPrefix(line, "auth: "); ok {
			user, pass, found := strings.Cut(creds, ":")
			if found {
				r.User, r.Pass = user, pass
			}
		}
	}
	return r, nil
}

// Response is a management reply.
//
// Wire form: "IOT/1 OK <data>" or "IOT/1 ERR <reason>".
type Response struct {
	OK   bool
	Data string
}

// Encode renders the wire form.
func (r Response) Encode() []byte {
	status := "ERR"
	if r.OK {
		status = "OK"
	}
	return []byte(fmt.Sprintf("IOT/1 %s %s", status, r.Data))
}

// ParseResponse decodes the wire form.
func ParseResponse(data []byte) (Response, error) {
	s := string(data)
	rest, ok := strings.CutPrefix(s, "IOT/1 ")
	if !ok {
		return Response{}, fmt.Errorf("%w: %q", ErrBadRequest, s)
	}
	status, payload, _ := strings.Cut(rest, " ")
	switch status {
	case "OK":
		return Response{OK: true, Data: payload}, nil
	case "ERR":
		return Response{OK: false, Data: payload}, nil
	default:
		return Response{}, fmt.Errorf("%w: status %q", ErrBadRequest, status)
	}
}

// Client issues management commands to devices over the fabric; it is
// what apps, hubs — and attackers — use.
type Client struct {
	Stack *netsim.Stack
	// Timeout bounds each call (default 2s).
	Timeout time.Duration
}

// Call dials the device, sends one request and waits for one response.
func (c *Client) Call(deviceIP packet.IPv4Address, req Request) (Response, error) {
	timeout := c.Timeout
	if timeout == 0 {
		timeout = 2 * time.Second
	}
	conn, err := c.Stack.Dial(deviceIP, MgmtPort, timeout)
	if err != nil {
		return Response{}, fmt.Errorf("device call %s: %w", deviceIP, err)
	}
	defer conn.Close()

	replyCh := make(chan Response, 1)
	errCh := make(chan error, 1)
	conn.OnMessage(func(msg []byte) {
		resp, err := ParseResponse(msg)
		if err != nil {
			select {
			case errCh <- err:
			default:
			}
			return
		}
		select {
		case replyCh <- resp:
		default:
		}
	})
	if err := conn.Send(req.Encode()); err != nil {
		return Response{}, err
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case resp := <-replyCh:
		return resp, nil
	case err := <-errCh:
		return Response{}, err
	case <-t.C:
		return Response{}, fmt.Errorf("device call %s %s: %w", deviceIP, req.Cmd, netsim.ErrTimeout)
	}
}
