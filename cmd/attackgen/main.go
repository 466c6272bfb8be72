// Command attackgen runs the Table 1 attack suite against an
// UNPROTECTED emulated deployment and prints what succeeds — the
// "current world" the paper opens with.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"iotsec/internal/attack"
	"iotsec/internal/device"
	"iotsec/internal/netsim"
	"iotsec/internal/packet"
)

func main() {
	os.Exit(run())
}

func run() int {
	verbose := flag.Bool("v", false, "print attack details")
	flag.Parse()

	n := netsim.NewNetwork()
	sw := netsim.NewSwitch("lan", 1)
	defer n.Stop()

	attackerIP := packet.MustParseIPv4("10.0.0.66")
	attackerStack := netsim.NewStack("attacker", device.MACFor(attackerIP), attackerIP)
	sw.Attach(n, attackerStack.Attach(n), attackerStack.MAC())
	defer attackerStack.Stop()
	adversary := attack.NewAttacker(attackerStack)

	cam := device.NewCamera("cam", packet.MustParseIPv4("10.0.0.10"))
	stb := device.NewSetTopBox("stb", packet.MustParseIPv4("10.0.0.11"))
	fridge := device.NewSmartFridge("fridge", packet.MustParseIPv4("10.0.0.12"))
	cctv1 := device.NewCCTV("cctv1", packet.MustParseIPv4("10.0.0.13"), "rsa-FLEET-1")
	cctv2 := device.NewCCTV("cctv2", packet.MustParseIPv4("10.0.0.14"), "rsa-FLEET-1")
	tl := device.NewTrafficLight("tl", packet.MustParseIPv4("10.0.0.15"))
	plug := device.NewSmartPlug("wemo", packet.MustParseIPv4("10.0.0.16"), device.Appliance{Name: "oven"})
	win := device.NewWindowActuator("window", packet.MustParseIPv4("10.0.0.17"))

	for _, d := range []*device.Device{cam.Device, stb.Device, fridge.Device, cctv1.Device, cctv2.Device, tl.Device, plug.Device, win.Device} {
		port, err := d.Attach(n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "attackgen: %v\n", err)
			return 1
		}
		sw.Attach(n, port, d.MAC())
		defer d.Stop()
	}
	if err := plug.StartDNSResolver(20); err != nil {
		fmt.Fprintf(os.Stderr, "attackgen: %v\n", err)
		return 1
	}
	n.Start()

	report := func(name string, r attack.Result) {
		status := "FAILED "
		if r.Success {
			status = "SUCCESS"
		}
		fmt.Printf("[%s] %-30s (%s)\n", status, name, r.Technique)
		if *verbose {
			fmt.Printf("          %s\n", r.Detail)
		}
	}

	report("camera default credentials", adversary.TryDefaultCredentials(cam.IP(), "SNAPSHOT"))
	report("set-top box open access", adversary.TryOpenAccess(stb.IP(), "INFO"))
	report("fridge spam relay", adversary.TryOpenAccess(fridge.IP(), "RELAY", "10.0.0.66", "5"))
	res, key := adversary.ExtractFirmwareKey(cctv1.IP())
	report("cctv firmware key extraction", res)
	report("cctv fleet key replay", adversary.ReplayKey(cctv2.IP(), key))
	report("traffic light takeover", adversary.TryOpenAccess(tl.IP(), "SET", "green"))
	report("wemo backdoor", adversary.TryBackdoor(plug.IP(), "ON", device.PlugBackdoorToken))
	report("window PIN brute force", adversary.BruteForcePIN(win.IP(), "OPEN", "admin", 20))

	time.Sleep(50 * time.Millisecond)
	fmt.Println("\nEvery one of these is blocked under IoTSec — see `iotsim -exp t1`.")
	return 0
}
