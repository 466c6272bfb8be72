package attack

import (
	"fmt"
	"testing"
	"time"

	"iotsec/internal/core"
	"iotsec/internal/device"
	"iotsec/internal/envsim"
	"iotsec/internal/learn"
	"iotsec/internal/netsim"
	"iotsec/internal/packet"
	"iotsec/internal/policy"
)

// planWorld builds the abstract model the planner reasons over:
// plug-powered heater + IFTTT window.
func planWorld() *learn.World {
	lib := learn.StandardLibrary()
	w := learn.NewWorld(map[string]string{
		"temperature": "normal", "window": "closed",
	})
	plugModel, _ := lib.Get("plug")
	windowModel, _ := lib.Get("window")
	w.AddInstance("plug", plugModel)
	w.AddInstance("window", windowModel)
	return w
}

// plan finds the §2.1 multi-stage attack in the abstract world.
func plan(t *testing.T) []learn.AttackStep {
	t.Helper()
	search := &learn.AttackSearch{
		Build:      planWorld,
		Vulnerable: map[string]bool{"plug": true},
		MaxDepth:   8,
	}
	path, _ := search.FindAttack(learn.GoalEnv("window", "open"))
	if path == nil {
		t.Fatal("planner found no attack")
	}
	return path
}

// liveDeployment builds the concrete emulated smart home, optionally
// under the IoTSec mitigation derived from the plan.
func liveDeployment(t *testing.T, mitigated bool) (*core.Platform, *Executor, *device.WindowActuator) {
	t.Helper()
	d := policy.NewDomain()
	d.AddDevice("plug")
	d.AddDevice("window")
	d.AddEnvVar(envsim.VarOccupancy, "away", "home")
	f := policy.NewFSM(d)
	if mitigated {
		// The mitigation CheckSafety derives: block plug.ON while
		// away.
		f.AddRule(policy.Rule{
			Name:       "no-heat-while-away",
			Conditions: []policy.Condition{policy.EnvIs(envsim.VarOccupancy, "away")},
			Device:     "plug",
			Posture:    policy.Posture{BlockCommands: []string{"ON"}},
			Priority:   10,
		})
	}
	p, err := core.New(core.Options{Policy: f})
	if err != nil {
		t.Fatal(err)
	}
	// The window opens itself when hot (the IFTTT recipe), modeled by
	// an environment observer driving the actuator.
	plug := device.NewSmartPlug("plug", packet.MustParseIPv4("10.0.0.30"), device.Appliance{
		Name: "heater", PowerVar: "heater_power", Watts: 2000, HeatVar: "hvac_heat_rate", HeatRate: 0.05,
	})
	win := device.NewWindowActuator("window", packet.MustParseIPv4("10.0.0.31"))
	if _, err := p.AddDevice(plug.Device); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddDevice(win.Device); err != nil {
		t.Fatal(err)
	}
	// IFTTT recipe: when the room is hot, open the window (a hub
	// would issue the command; we model its physical effect).
	p.Env.AddObserver(func(s envsim.Snapshot, _ map[string]float64) {
		if s.Get(envsim.VarTemperature) > 27 && win.Get("window") == "closed" {
			win.Set("window", "open")
			p.Env.Set(envsim.VarWindowOpen, 1)
		}
	})
	p.Env.Set(envsim.VarOccupancy, 0)
	p.Start()
	t.Cleanup(p.Stop)
	p.RunEnvironment(1)

	attackerIP := packet.MustParseIPv4("10.0.0.66")
	st := netsim.NewStack("attacker", device.MACFor(attackerIP), attackerIP)
	p.AttachHost(st)
	t.Cleanup(st.Stop)

	exec := &Executor{
		Attacker: NewAttacker(st),
		Env:      p.Env,
		Targets: map[string]TargetInfo{
			"plug":   {IP: plug.IP(), BackdoorToken: device.PlugBackdoorToken},
			"window": {IP: win.IP(), User: "admin", Pass: device.WindowPassword},
		},
	}
	return p, exec, win
}

func TestAbstractPlanExecutesAgainstBareDeployment(t *testing.T) {
	path := plan(t)
	_, exec, win := liveDeployment(t, false)
	time.Sleep(20 * time.Millisecond)

	result := exec.Execute(path)
	if !result.Succeeded() {
		t.Fatalf("plan failed at %q after %d/%d steps", result.FailedStep, result.StepsSucceeded, result.StepsAttempted)
	}
	if win.Get("window") != "open" {
		t.Fatalf("window = %q; the physical break-in chain did not complete", win.Get("window"))
	}
}

func TestAbstractPlanBlockedByDerivedMitigation(t *testing.T) {
	path := plan(t)
	p, exec, win := liveDeployment(t, true)
	time.Sleep(20 * time.Millisecond)

	result := exec.Execute(path)
	if result.Succeeded() {
		t.Fatalf("plan succeeded despite the mitigation (window=%q)", win.Get("window"))
	}
	if win.Get("window") == "open" {
		t.Fatal("window opened anyway")
	}
	if p.Env.Get(envsim.VarTemperature) > 27 {
		t.Errorf("room heated to %.1f despite blocked plug", p.Env.Get(envsim.VarTemperature))
	}
}

// TargetInfo tells the executor how to reach and exploit one device
// named in an abstract attack plan.
type TargetInfo struct {
	IP packet.IPv4Address
	// Exploit yields credentials/args that make commands succeed
	// after StepExploit: either a backdoor token appended to args, or
	// a user/pass pair.
	BackdoorToken string
	User, Pass    string
}

// Executor carries an abstract attack path (from learn.AttackSearch)
// out against the live emulated deployment: exploit steps establish
// access, command steps become real management requests, wait steps
// advance the physical environment. This is the adversary the paper's
// §4.2 wants to predict — and the one IoTSec must stop.
type Executor struct {
	Attacker *Attacker
	// Targets maps abstract device names to concrete reach info.
	Targets map[string]TargetInfo
	// Env advances on wait steps.
	Env *envsim.Environment
	// WaitTicks is environment steps per wait (default 120 —
	// enough simulated time for thermal effects).
	WaitTicks int
}

// ExecutionResult reports how far the plan got.
type ExecutionResult struct {
	StepsAttempted int
	StepsSucceeded int
	// FailedStep describes the first failing step ("" if all
	// succeeded).
	FailedStep string
}

// Succeeded reports whether the whole plan executed.
func (r ExecutionResult) Succeeded() bool { return r.FailedStep == "" }

// Execute runs the plan step by step, stopping at the first failure
// (a blocked command means the defense held).
func (e *Executor) Execute(path []learn.AttackStep) ExecutionResult {
	waitTicks := e.WaitTicks
	if waitTicks <= 0 {
		waitTicks = 120
	}
	res := ExecutionResult{}
	// compromised tracks which devices the attacker has "shelled";
	// for emulated devices this means its exploit primitive worked
	// once.
	compromised := map[string]bool{}

	for _, step := range path {
		res.StepsAttempted++
		switch step.Kind {
		case learn.StepExploit:
			target, ok := e.Targets[step.Device]
			if !ok {
				res.FailedStep = fmt.Sprintf("exploit(%s): unknown target", step.Device)
				return res
			}
			// Probe access with a harmless STATUS through the exploit
			// primitive.
			probe := e.authedRequest(step.Device, target, "STATUS", nil)
			resp, err := e.Attacker.call(target.IP, probe)
			if err != nil || !resp.OK {
				res.FailedStep = fmt.Sprintf("exploit(%s): %v / %s", step.Device, err, resp.Data)
				return res
			}
			compromised[step.Device] = true
		case learn.StepCommand:
			target, ok := e.Targets[step.Device]
			if !ok {
				res.FailedStep = fmt.Sprintf("%s.%s: unknown target", step.Device, step.Cmd)
				return res
			}
			if !compromised[step.Device] && target.BackdoorToken == "" && target.User == "" {
				res.FailedStep = fmt.Sprintf("%s.%s: no access", step.Device, step.Cmd)
				return res
			}
			req := e.authedRequest(step.Device, target, step.Cmd, nil)
			resp, err := e.Attacker.call(target.IP, req)
			if err != nil || !resp.OK {
				res.FailedStep = fmt.Sprintf("%s.%s: %v / %s", step.Device, step.Cmd, err, resp.Data)
				return res
			}
		case learn.StepWait:
			if e.Env != nil {
				e.Env.Run(waitTicks)
			}
		}
		res.StepsSucceeded++
	}
	return res
}

// authedRequest builds a request using the target's exploit primitive.
func (e *Executor) authedRequest(_ string, target TargetInfo, cmd string, args []string) device.Request {
	req := device.Request{Cmd: cmd, Args: args, User: target.User, Pass: target.Pass}
	if target.BackdoorToken != "" {
		req.Args = append(append([]string{}, args...), target.BackdoorToken)
	}
	return req
}
