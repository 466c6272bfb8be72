package device

import (
	"fmt"
	"strings"

	"iotsec/internal/envsim"
	"iotsec/internal/packet"
)

// MACFor derives a stable locally-administered MAC from an IPv4
// address, keeping scenario wiring terse.
func MACFor(ip packet.IPv4Address) packet.MACAddress {
	return packet.MACAddress{0x02, 0x1c, ip[0], ip[1], ip[2], ip[3]}
}

// Camera emulates a consumer IP camera with a hardcoded factory
// password the user cannot change (Table 1 row 1 / Figure 4). Anyone
// with "admin:admin" — i.e. anyone — can pull snapshots and query
// presence detection.
type Camera struct {
	*Device
}

// CameraProfile is the Avtech/D-Link-style SKU.
func CameraProfile() Profile {
	return Profile{
		SKU:    "avtech-cam-fw1.2",
		Class:  "camera",
		Vendor: "Avtech",
		Vulns: []Vulnerability{
			{Class: VulnDefaultCredentials, Detail: "admin:admin"},
		},
	}
}

// NewCamera builds a camera at the given address.
func NewCamera(name string, ip packet.IPv4Address) *Camera {
	c := &Camera{Device: New(name, CameraProfile(), MACFor(ip), ip)}
	c.Set("recording", "on")
	c.Handle("SNAPSHOT", func(d *Device, _ Request) Response {
		// A compromised snapshot is the privacy leak of §1.
		return Response{OK: true, Data: "jpeg:" + strings.Repeat("f", 64)}
	})
	c.Handle("DETECT", func(d *Device, _ Request) Response {
		present := "no"
		if env := d.Env(); env != nil && env.Get(envsim.VarOccupancy) >= 0.5 {
			present = "yes"
		}
		d.Set("person", present)
		return Response{OK: true, Data: "person=" + present}
	})
	c.Handle("SET_PASSWORD", func(d *Device, _ Request) Response {
		// The Figure 4 flaw: the firmware offers no way to replace
		// the factory credentials.
		return Response{OK: false, Data: "unsupported on this firmware"}
	})
	c.OnTick(func(s envsim.Snapshot) {
		present := "no"
		if s.Get(envsim.VarOccupancy) >= 0.5 {
			present = "yes"
		}
		c.Set("person", present)
	})
	return c
}

// CCTV emulates the Table 1 row 4 camera population: ~30k devices
// sharing an RSA key pair embedded in the firmware image. Extracting
// the key from any one unit grants administrative access to all of
// them.
type CCTV struct {
	*Device
}

// CCTVProfile is the shared-firmware SKU.
func CCTVProfile(privateKey string) Profile {
	return Profile{
		SKU:    "cctv-rsa-fw3.0",
		Class:  "camera",
		Vendor: "GenericCCTV",
		Vulns: []Vulnerability{
			{Class: VulnExposedKey, Detail: privateKey},
		},
	}
}

// NewCCTV builds a CCTV unit; every unit of the SKU shares privateKey.
func NewCCTV(name string, ip packet.IPv4Address, privateKey string) *CCTV {
	c := &CCTV{Device: New(name, CCTVProfile(privateKey), MACFor(ip), ip)}
	c.Set("recording", "on")
	// Key-based admin auth: present the firmware key as password.
	c.creds["fwadmin"] = privateKey
	c.HandlePublic("FIRMWARE", func(d *Device, _ Request) Response {
		// Firmware download needs no auth on this SKU — and the blob
		// contains the private key (the Costin et al. finding the
		// paper cites).
		return Response{OK: true, Data: fmt.Sprintf("blob:v3.0;rsa_private=%s", privateKey)}
	})
	c.Handle("SNAPSHOT", func(d *Device, _ Request) Response {
		return Response{OK: true, Data: "jpeg:" + strings.Repeat("c", 64)}
	})
	return c
}
