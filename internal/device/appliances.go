package device

import (
	"fmt"
	"strconv"

	"iotsec/internal/packet"
)

// SmartOven is the Figure 5 fire hazard: when powered it heats the
// room. It is normally switched through a smart plug, but also exposes
// its own (authenticated) interface.
type SmartOven struct {
	*Device
}

// SmartOvenProfile is the SKU.
func SmartOvenProfile() Profile {
	return Profile{
		SKU:    "bakemaster-900",
		Class:  "oven",
		Vendor: "BakeMaster",
		Vulns: []Vulnerability{
			{Class: VulnDefaultCredentials, Detail: "chef:chef"},
		},
	}
}

// NewSmartOven builds the oven.
func NewSmartOven(name string, ip packet.IPv4Address) *SmartOven {
	o := &SmartOven{Device: New(name, SmartOvenProfile(), MACFor(ip), ip)}
	o.Set("heat", "off")
	o.Handle("ON", func(d *Device, _ Request) Response {
		d.Set("heat", "on")
		if env := d.Env(); env != nil {
			env.Set("oven_heat_rate", 0.02)
			env.Set("oven_power", 1800)
		}
		return Response{OK: true, Data: "heat=on"}
	})
	o.Handle("OFF", func(d *Device, _ Request) Response {
		d.Set("heat", "off")
		if env := d.Env(); env != nil {
			env.Set("oven_heat_rate", 0)
			env.Set("oven_power", 0)
		}
		return Response{OK: true, Data: "heat=off"}
	})
	return o
}

// SetTopBox is the Table 1 row 2 population: 61k boxes with fully
// exposed management.
type SetTopBox struct {
	*Device
}

// SetTopBoxProfile is the SKU.
func SetTopBoxProfile() Profile {
	return Profile{
		SKU:    "streambox-tv8",
		Class:  "set-top-box",
		Vendor: "StreamBox",
		Vulns: []Vulnerability{
			{Class: VulnOpenAccess, Detail: "telnet-style mgmt open"},
		},
	}
}

// NewSetTopBox builds the box.
func NewSetTopBox(name string, ip packet.IPv4Address) *SetTopBox {
	s := &SetTopBox{Device: New(name, SetTopBoxProfile(), MACFor(ip), ip)}
	s.Set("channel", "1")
	s.Handle("TUNE", func(d *Device, req Request) Response {
		if len(req.Args) != 1 {
			return Response{OK: false, Data: "usage: TUNE <channel>"}
		}
		if _, err := strconv.Atoi(req.Args[0]); err != nil {
			return Response{OK: false, Data: "bad channel"}
		}
		d.Set("channel", req.Args[0])
		return Response{OK: true, Data: "channel=" + req.Args[0]}
	})
	s.Handle("INFO", func(d *Device, _ Request) Response {
		return Response{OK: true, Data: "model=tv8;subscriber=acct-4411;mac=" + d.MAC().String()}
	})
	return s
}

// SmartFridge is the Table 1 row 3 population (and §1's "fridge sends
// spam" anecdote): its open mail-relay command lets a botnet herder
// pump spam through the kitchen.
type SmartFridge struct {
	*Device
}

// SmartFridgeProfile is the SKU.
func SmartFridgeProfile() Profile {
	return Profile{
		SKU:    "coolnet-rf28",
		Class:  "refrigerator",
		Vendor: "CoolNet",
		Vulns: []Vulnerability{
			{Class: VulnOpenAccess, Detail: "mgmt + relay open"},
		},
	}
}

// NewSmartFridge builds the fridge.
func NewSmartFridge(name string, ip packet.IPv4Address) *SmartFridge {
	f := &SmartFridge{Device: New(name, SmartFridgeProfile(), MACFor(ip), ip)}
	f.Set("door", "closed")
	f.Set("temp_setpoint", "4")
	f.Handle("RELAY", func(d *Device, req Request) Response {
		// RELAY <targetIP> <count>: sends count "mail" datagrams to
		// the target's port 25 — the spam-bot behavior.
		if len(req.Args) != 2 {
			return Response{OK: false, Data: "usage: RELAY <ip> <count>"}
		}
		dst, ok := packet.ParseIPv4(req.Args[0])
		if !ok {
			return Response{OK: false, Data: "bad target"}
		}
		count, err := strconv.Atoi(req.Args[1])
		if err != nil || count < 0 || count > 10000 {
			return Response{OK: false, Data: "bad count"}
		}
		for i := 0; i < count; i++ {
			_ = d.Stack().SendUDP(dst, 25, 2525, []byte(fmt.Sprintf("SPAM %d buy-now", i)))
		}
		prev, _ := strconv.Atoi(d.Get("spam_sent"))
		d.Set("spam_sent", strconv.Itoa(prev+count))
		return Response{OK: true, Data: fmt.Sprintf("relayed=%d", count)}
	})
	f.Set("spam_sent", "0")
	return f
}
