package device

import (
	"fmt"
	"strconv"

	"iotsec/internal/envsim"
	"iotsec/internal/packet"
)

// FireAlarm is a NEST-Protect-class smoke/CO alarm. It senses the
// environment every tick and raises its alarm state when smoke crosses
// the threshold. Its flaw is the Figure 3 backdoor: a maintenance
// token bypasses authentication — the event the policy FSM keys its
// "suspicious" transition on.
type FireAlarm struct {
	*Device
	// Threshold is the smoke concentration that trips the alarm.
	Threshold float64
}

// AlarmBackdoorToken is the undocumented maintenance token.
const AlarmBackdoorToken = "fa-maint-11"

// FireAlarmProfile is the SKU.
func FireAlarmProfile() Profile {
	return Profile{
		SKU:    "nest-protect-fw1.4",
		Class:  "fire-alarm",
		Vendor: "Nest",
		Vulns: []Vulnerability{
			{Class: VulnBackdoor, Detail: AlarmBackdoorToken},
			{Class: VulnDefaultCredentials, Detail: "nest:nest"},
		},
	}
}

// NewFireAlarm builds the alarm.
func NewFireAlarm(name string, ip packet.IPv4Address) *FireAlarm {
	f := &FireAlarm{
		Device:    New(name, FireAlarmProfile(), MACFor(ip), ip),
		Threshold: 0.2,
	}
	f.Set("alarm", "ok")
	f.Handle("SILENCE", func(d *Device, _ Request) Response {
		d.Set("alarm", "ok")
		return Response{OK: true, Data: "alarm=ok"}
	})
	f.Handle("TEST", func(d *Device, _ Request) Response {
		d.Set("alarm", "alarm")
		d.Emit(EventSensor, "test-alarm")
		return Response{OK: true, Data: "alarm=alarm"}
	})
	f.OnTick(func(s envsim.Snapshot) {
		if s.Get(envsim.VarSmoke) >= f.Threshold {
			if f.Get("alarm") != "alarm" {
				f.Emit(EventSensor, "smoke=yes")
			}
			f.Set("alarm", "alarm")
		} else if f.Get("alarm") == "alarm" && s.Get(envsim.VarSmoke) < f.Threshold/2 {
			f.Set("alarm", "ok")
		}
	})
	return f
}

// Thermostat is a NEST-class HVAC controller: it reads room
// temperature each tick and drives heating/cooling toward its target.
type Thermostat struct {
	*Device
}

// ThermostatProfile is the SKU.
func ThermostatProfile() Profile {
	return Profile{
		SKU:    "nest-thermo-v3",
		Class:  "thermostat",
		Vendor: "Nest",
		Vulns: []Vulnerability{
			{Class: VulnDefaultCredentials, Detail: "nest:nest"},
		},
	}
}

// NewThermostat builds a thermostat targeting 22°C, mode auto.
func NewThermostat(name string, ip packet.IPv4Address) *Thermostat {
	t := &Thermostat{Device: New(name, ThermostatProfile(), MACFor(ip), ip)}
	t.Set("target", "22.0")
	t.Set("mode", "auto")
	t.Set("hvac", "idle")
	t.Handle("SET_TARGET", func(d *Device, req Request) Response {
		if len(req.Args) != 1 {
			return Response{OK: false, Data: "usage: SET_TARGET <celsius>"}
		}
		if _, err := strconv.ParseFloat(req.Args[0], 64); err != nil {
			return Response{OK: false, Data: "bad target"}
		}
		d.Set("target", req.Args[0])
		return Response{OK: true, Data: "target=" + req.Args[0]}
	})
	t.Handle("SET_MODE", func(d *Device, req Request) Response {
		if len(req.Args) != 1 || (req.Args[0] != "auto" && req.Args[0] != "off") {
			return Response{OK: false, Data: "usage: SET_MODE <auto|off>"}
		}
		d.Set("mode", req.Args[0])
		return Response{OK: true, Data: "mode=" + req.Args[0]}
	})
	t.Handle("READ", func(d *Device, _ Request) Response {
		temp := 0.0
		if env := d.Env(); env != nil {
			temp = env.Get(envsim.VarTemperature)
		}
		return Response{OK: true, Data: fmt.Sprintf("temperature=%.2f", temp)}
	})
	t.OnTick(func(s envsim.Snapshot) {
		env := t.Env()
		if env == nil {
			return
		}
		if t.Get("mode") != "auto" {
			t.Set("hvac", "off")
			env.Set("hvac_heat_rate", 0)
			env.Set("hvac_power", 0)
			return
		}
		target, _ := strconv.ParseFloat(t.Get("target"), 64)
		temp := s.Get(envsim.VarTemperature)
		switch {
		case temp < target-0.5:
			t.Set("hvac", "heating")
			env.Set("hvac_heat_rate", 0.004)
			env.Set("hvac_power", 2500)
		case temp > target+0.5:
			t.Set("hvac", "cooling")
			env.Set("hvac_heat_rate", -0.004)
			env.Set("hvac_power", 2500)
		default:
			t.Set("hvac", "idle")
			env.Set("hvac_heat_rate", 0)
			env.Set("hvac_power", 0)
		}
	})
	return t
}

// LightSensor reports ambient light; coupled to bulbs only through
// the room (the canonical implicit dependency of §1).
type LightSensor struct {
	*Device
}

// LightSensorProfile is the SKU.
func LightSensorProfile() Profile {
	return Profile{
		SKU:    "luxsense-1",
		Class:  "light-sensor",
		Vendor: "LuxSense",
		Vulns: []Vulnerability{
			{Class: VulnOpenAccess, Detail: "read-only, no auth"},
		},
	}
}

// NewLightSensor builds the sensor.
func NewLightSensor(name string, ip packet.IPv4Address) *LightSensor {
	l := &LightSensor{Device: New(name, LightSensorProfile(), MACFor(ip), ip)}
	l.Set("light", "unknown")
	l.Handle("READ", func(d *Device, _ Request) Response {
		lux := 0.0
		if env := d.Env(); env != nil {
			lux = env.Get(envsim.VarLight)
		}
		return Response{OK: true, Data: fmt.Sprintf("light=%.0f", lux)}
	})
	l.OnTick(func(s envsim.Snapshot) {
		level := "dark"
		if s.Get(envsim.VarLight) >= 100 {
			level = "lit"
		}
		l.Set("light", level)
	})
	return l
}
