package experiment

import (
	"fmt"
	"time"

	"iotsec/internal/attack"
	"iotsec/internal/device"
	"iotsec/internal/packet"
)

// Table1Row drives one row of the paper's Table 1: the device class,
// the reported vulnerable population, and the exploit — executed
// against the emulated device with and without IoTSec.
type Table1Row struct {
	Row           int
	Device        string
	Population    string
	Vulnerability string
	// run executes the exploit in both worlds, returning success
	// flags.
	run func() (unprotected, protected bool, err error)
}

// RunTable1 reproduces Table 1.
func RunTable1() (*Table, error) {
	rows := []Table1Row{
		{Row: 1, Device: "Avtech Cam", Population: "130k", Vulnerability: "exposed account/password", run: runRow1Camera},
		{Row: 2, Device: "TV Set-top box", Population: "61k", Vulnerability: "exposed access", run: runRow2SetTop},
		{Row: 3, Device: "Smart Refrigerator", Population: "146", Vulnerability: "exposed access", run: runRow3Fridge},
		{Row: 4, Device: "CCTV Cam", Population: "30k (by IP)", Vulnerability: "unprotected RSA key pairs", run: runRow4CCTV},
		{Row: 5, Device: "Traffic Light", Population: "219", Vulnerability: "no credentials", run: runRow5TrafficLight},
		{Row: 6, Device: "Belkin Wemo", Population: ">500k (est.)", Vulnerability: "open DNS resolver, DDoS", run: runRow6WemoDNS},
		{Row: 7, Device: "Belkin Wemo", Population: ">500k (est.)", Vulnerability: "exposed access, bypass app", run: runRow7WemoBackdoor},
	}
	t := &Table{
		ID:      "T1",
		Title:   "Known IoT vulnerabilities: exploitability without vs with IoTSec",
		Columns: []string{"Row", "Device", "Num.", "Vulnerability", "Exploit (bare)", "Exploit (IoTSec)"},
	}
	for _, r := range rows {
		bare, protected, err := r.run()
		if err != nil {
			return nil, fmt.Errorf("table1 row %d: %w", r.Row, err)
		}
		t.AddRow(r.Row, r.Device, r.Population, r.Vulnerability, yesNo(bare), yesNo(protected))
	}
	t.Note("populations are the paper's reported counts; exploits run against one emulated instance per SKU")
	return t, nil
}

func runRow1Camera() (bool, bool, error) {
	raw := newRawLab()
	cam := device.NewCamera("cam", packet.MustParseIPv4("10.0.0.10"))
	if err := raw.add(cam.Device); err != nil {
		return false, false, err
	}
	raw.start()
	bare := raw.attacker.TryDefaultCredentials(cam.IP(), "SNAPSHOT").Success
	raw.stop()

	prot, err := newProtectedLab(policyFor("cam", device.CameraProfile()))
	if err != nil {
		return false, false, err
	}
	defer prot.stop()
	cam2 := device.NewCamera("cam", packet.MustParseIPv4("10.0.0.10"))
	if _, err := prot.platform.AddDevice(cam2.Device); err != nil {
		return false, false, err
	}
	prot.platform.Start()
	protected := prot.attacker.TryDefaultCredentials(cam2.IP(), "SNAPSHOT").Success
	return bare, protected, nil
}

func runRow2SetTop() (bool, bool, error) {
	raw := newRawLab()
	stb := device.NewSetTopBox("stb", packet.MustParseIPv4("10.0.0.11"))
	if err := raw.add(stb.Device); err != nil {
		return false, false, err
	}
	raw.start()
	bare := raw.attacker.TryOpenAccess(stb.IP(), "TUNE", "666").Success
	raw.stop()

	prot, err := newProtectedLab(policyFor("stb", device.SetTopBoxProfile()))
	if err != nil {
		return false, false, err
	}
	defer prot.stop()
	stb2 := device.NewSetTopBox("stb", packet.MustParseIPv4("10.0.0.11"))
	if _, err := prot.platform.AddDevice(stb2.Device); err != nil {
		return false, false, err
	}
	prot.platform.Start()
	protected := prot.attacker.TryOpenAccess(stb2.IP(), "TUNE", "666").Success
	return bare, protected, nil
}

func runRow3Fridge() (bool, bool, error) {
	raw := newRawLab()
	fridge := device.NewSmartFridge("fridge", packet.MustParseIPv4("10.0.0.12"))
	if err := raw.add(fridge.Device); err != nil {
		return false, false, err
	}
	raw.start()
	bare := raw.attacker.TryOpenAccess(fridge.IP(), "RELAY", "10.0.0.99", "10").Success
	raw.stop()

	prot, err := newProtectedLab(policyFor("fridge", device.SmartFridgeProfile()))
	if err != nil {
		return false, false, err
	}
	defer prot.stop()
	fridge2 := device.NewSmartFridge("fridge", packet.MustParseIPv4("10.0.0.12"))
	if _, err := prot.platform.AddDevice(fridge2.Device); err != nil {
		return false, false, err
	}
	prot.platform.Start()
	protected := prot.attacker.TryOpenAccess(fridge2.IP(), "RELAY", "10.0.0.99", "10").Success
	return bare, protected, nil
}

func runRow4CCTV() (bool, bool, error) {
	const sharedKey = "rsa-FLEET-KEY-77"
	raw := newRawLab()
	c1 := device.NewCCTV("cctv1", packet.MustParseIPv4("10.0.0.20"), sharedKey)
	c2 := device.NewCCTV("cctv2", packet.MustParseIPv4("10.0.0.21"), sharedKey)
	if err := raw.add(c1.Device); err != nil {
		return false, false, err
	}
	if err := raw.add(c2.Device); err != nil {
		return false, false, err
	}
	raw.start()
	res, key := raw.attacker.ExtractFirmwareKey(c1.IP())
	bare := res.Success && raw.attacker.ReplayKey(c2.IP(), key).Success
	raw.stop()

	// Protected: both units behind password proxies; the firmware
	// download (and any key replay) dies at the proxy.
	prot, err := newProtectedLab(policyForMany(map[string]device.Profile{
		"cctv1": device.CCTVProfile(sharedKey),
		"cctv2": device.CCTVProfile(sharedKey),
	}))
	if err != nil {
		return false, false, err
	}
	defer prot.stop()
	p1 := device.NewCCTV("cctv1", packet.MustParseIPv4("10.0.0.20"), sharedKey)
	p2 := device.NewCCTV("cctv2", packet.MustParseIPv4("10.0.0.21"), sharedKey)
	if _, err := prot.platform.AddDevice(p1.Device); err != nil {
		return false, false, err
	}
	if _, err := prot.platform.AddDevice(p2.Device); err != nil {
		return false, false, err
	}
	prot.platform.Start()
	res2, key2 := prot.attacker.ExtractFirmwareKey(p1.IP())
	protected := res2.Success && prot.attacker.ReplayKey(p2.IP(), key2).Success
	return bare, protected, nil
}

func runRow5TrafficLight() (bool, bool, error) {
	raw := newRawLab()
	tl := device.NewTrafficLight("tl", packet.MustParseIPv4("10.0.0.30"))
	if err := raw.add(tl.Device); err != nil {
		return false, false, err
	}
	raw.start()
	bare := raw.attacker.TryOpenAccess(tl.IP(), "SET", "green").Success
	raw.stop()

	prot, err := newProtectedLab(policyFor("tl", device.TrafficLightProfile()))
	if err != nil {
		return false, false, err
	}
	defer prot.stop()
	tl2 := device.NewTrafficLight("tl", packet.MustParseIPv4("10.0.0.30"))
	if _, err := prot.platform.AddDevice(tl2.Device); err != nil {
		return false, false, err
	}
	prot.platform.Start()
	protected := prot.attacker.TryOpenAccess(tl2.IP(), "SET", "green").Success
	return bare, protected, nil
}

func runRow6WemoDNS() (bool, bool, error) {
	run := func(protected bool) (bool, error) {
		victimIP := packet.MustParseIPv4("10.0.0.99")
		if !protected {
			raw := newRawLab()
			defer raw.stop()
			plug := device.NewSmartPlug("wemo", packet.MustParseIPv4("10.0.0.40"), device.Appliance{Name: "x"})
			if err := raw.add(plug.Device); err != nil {
				return false, err
			}
			if err := plug.StartDNSResolver(20); err != nil {
				return false, err
			}
			victimStack := raw.addHost("10.0.0.99")
			victim, err := attack.NewVictim(victimStack, 7777)
			if err != nil {
				return false, err
			}
			raw.start()
			res, err := attack.AmplifyDNS(raw.attacker.Stack, plug.IP(), victimIP, 7777, 30)
			if err != nil {
				return false, err
			}
			// The reflection runs inside the resolver's UDP handler, so
			// a drained fabric has delivered every response.
			raw.net.Quiesce(2 * time.Second)
			res.Finalize(victim)
			return res.Factor > 2, nil
		}
		prot, err := newProtectedLab(policyFor("wemo", device.SmartPlugProfile()))
		if err != nil {
			return false, err
		}
		defer prot.stop()
		plug := device.NewSmartPlug("wemo", packet.MustParseIPv4("10.0.0.40"), device.Appliance{Name: "x"})
		if _, err := prot.platform.AddDevice(plug.Device); err != nil {
			return false, err
		}
		if err := plug.StartDNSResolver(20); err != nil {
			return false, err
		}
		victimAddr := packet.MustParseIPv4("10.0.0.99")
		victimStack := netsimStack("victim", victimAddr)
		prot.platform.AttachHost(victimStack)
		prot.hosts = append(prot.hosts, victimStack)
		victim, err := attack.NewVictim(victimStack, 7777)
		if err != nil {
			return false, err
		}
		prot.platform.Start()
		res, err := attack.AmplifyDNS(prot.attacker.Stack, plug.IP(), victimIP, 7777, 30)
		if err != nil {
			return false, err
		}
		prot.platform.Network.Quiesce(2 * time.Second)
		res.Finalize(victim)
		return res.Factor > 2, nil
	}
	bare, err := run(false)
	if err != nil {
		return false, false, err
	}
	protected, err := run(true)
	return bare, protected, err
}

func runRow7WemoBackdoor() (bool, bool, error) {
	raw := newRawLab()
	plug := device.NewSmartPlug("wemo", packet.MustParseIPv4("10.0.0.50"), device.Appliance{Name: "oven"})
	if err := raw.add(plug.Device); err != nil {
		return false, false, err
	}
	raw.start()
	bare := raw.attacker.TryBackdoor(plug.IP(), "ON", device.PlugBackdoorToken).Success
	raw.stop()

	prot, err := newProtectedLab(policyFor("wemo", device.SmartPlugProfile()))
	if err != nil {
		return false, false, err
	}
	defer prot.stop()
	plug2 := device.NewSmartPlug("wemo", packet.MustParseIPv4("10.0.0.50"), device.Appliance{Name: "oven"})
	if _, err := prot.platform.AddDevice(plug2.Device); err != nil {
		return false, false, err
	}
	// The community signature for the backdoor token (from the
	// crowdsourced repository) arms the IDS module.
	sig := `block tcp any any -> any 80 (msg:"wemo backdoor token"; content:"` + device.PlugBackdoorToken + `"; sid:9001;)`
	if err := prot.platform.AddSignatureRule(plug2.Profile.SKU, sig); err != nil {
		return false, false, err
	}
	prot.platform.Start()
	settle()
	protected := prot.attacker.TryBackdoor(plug2.IP(), "ON", device.PlugBackdoorToken).Success
	return bare, protected, nil
}
