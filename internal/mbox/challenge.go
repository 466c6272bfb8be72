package mbox

import (
	"sync"

	"iotsec/internal/device"
)

// Challenge is the "robot check" posture module of Figure 3: once a
// device is under online brute force, every management request must
// carry a human-solved challenge token ("captcha:<solution>" as the
// final argument), which the element strips before forwarding.
// Requests without it are reset — an automated brute-forcer cannot
// proceed.
type Challenge struct {
	mu       sync.RWMutex
	solution string

	passed, rejected uint64
}

// NewChallenge builds the element with the expected solution.
func NewChallenge(solution string) *Challenge {
	return &Challenge{solution: solution}
}

// Name implements Element.
func (c *Challenge) Name() string { return "robot-check" }

// Counters reports passed and rejected requests.
func (c *Challenge) Counters() (passed, rejected uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.passed, c.rejected
}

// Process implements Element.
func (c *Challenge) Process(ctx *Context) Verdict {
	if ctx.Dir != ToDevice {
		return Forward
	}
	tcp := ctx.Packet.TCP()
	if tcp == nil || tcp.DstPort != device.MgmtPort || len(tcp.LayerPayload()) == 0 {
		return Forward
	}
	req, err := device.ParseRequest(tcp.LayerPayload())
	if err != nil {
		return Forward
	}
	c.mu.RLock()
	want := "captcha:" + c.solution
	c.mu.RUnlock()

	if n := len(req.Args); n > 0 && req.Args[n-1] == want {
		req.Args = req.Args[:n-1]
		frame, err := rewriteTCPPayload(ctx.Packet, req.Encode())
		if err != nil {
			return Drop
		}
		c.mu.Lock()
		c.passed++
		c.mu.Unlock()
		ctx.Frame = frame
		ctx.Reparse = true
		return Forward
	}
	c.mu.Lock()
	c.rejected++
	c.mu.Unlock()
	return refuse(ctx)
}
