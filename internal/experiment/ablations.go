package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"iotsec/internal/controller"
	"iotsec/internal/device"
	"iotsec/internal/learn"
	"iotsec/internal/mbox"
	"iotsec/internal/policy"
	"iotsec/internal/sigrepo"
)

// RunAblationStatePruning (A1) quantifies the §3.2 state explosion
// and how far the two pruning strategies shrink it as deployments
// scale.
func RunAblationStatePruning() *Table {
	t := &Table{
		ID:      "A1",
		Title:   "Policy state space: brute force vs independence vs posture-equivalence",
		Columns: []string{"Devices", "Full |S|", "Independence-pruned", "Posture classes"},
	}
	for _, nDevices := range []int{5, 10, 20, 40, 80} {
		d := policy.NewDomain()
		for i := 0; i < nDevices; i++ {
			d.AddDevice(fmt.Sprintf("dev%03d", i), policy.ContextNormal, policy.ContextSuspicious, policy.ContextCompromised)
		}
		d.AddEnvVar("occupancy", "away", "home")
		d.AddEnvVar("smoke", "no", "yes")
		d.AddEnvVar("temperature", "low", "normal", "high")

		// A realistic policy references a handful of devices — the
		// rest are independent.
		f := policy.NewFSM(d)
		f.AddRule(policy.Rule{
			Name:       "fig3",
			Conditions: []policy.Condition{policy.DeviceIs("dev000", policy.ContextSuspicious)},
			Device:     "dev001",
			Posture:    policy.Posture{BlockCommands: []string{"OPEN"}},
			Priority:   10,
		})
		f.AddRule(policy.Rule{
			Name:       "fig5",
			Conditions: []policy.Condition{policy.EnvIs("occupancy", "away")},
			Device:     "dev002",
			Posture:    policy.Posture{BlockCommands: []string{"ON"}},
			Priority:   10,
		})
		f.AddRule(policy.Rule{
			Name:       "quarantine",
			Conditions: []policy.Condition{policy.DeviceIs("dev003", policy.ContextCompromised)},
			Device:     "dev003",
			Posture:    policy.Posture{Isolate: true},
			Priority:   20,
		})
		report := f.Prune(1 << 16)
		t.AddRow(nDevices,
			policy.FormatCount(report.FullStates),
			policy.FormatCount(report.IndependentStates),
			report.EquivalenceClasses)
	}
	t.Note("policy references 4 devices + 1 env var regardless of deployment size; pruning makes lookup size deployment-independent")
	return t
}

// RunAblationHierarchy (A2) compares flat (everything global) vs
// hierarchical event handling as deployments scale and interactions
// stay local. The event mix is drawn from the injected seed so runs
// are reproducible and comparable across configurations.
func RunAblationHierarchy(globalRTT time.Duration, seed int64) *Table {
	t := &Table{
		ID:      "A2",
		Title:   "Flat vs hierarchical control plane (modeled global RTT " + globalRTT.String() + ")",
		Columns: []string{"Devices", "Events", "Flat latency", "Hier. escalated", "Hier. latency"},
	}
	rng := rand.New(rand.NewSource(seed))
	for _, nDevices := range []int{8, 32, 128} {
		devices := make([]string, nDevices)
		d := policy.NewDomain()
		for i := range devices {
			devices[i] = fmt.Sprintf("dev%03d", i)
			d.AddDevice(devices[i], policy.ContextNormal, policy.ContextSuspicious)
			d.AddEnvVar(devices[i]+"_attr", "a", "b")
		}
		// Interaction edges: strongly local pairs.
		var edges []controller.InteractionEdge
		for i := 0; i+1 < nDevices; i += 2 {
			edges = append(edges, controller.InteractionEdge{A: devices[i], B: devices[i+1], Weight: 100})
		}
		part := controller.Partition(devices, edges, 2)

		// Policy: each pair has a local rule; plus one global rule
		// over two devices in different partitions.
		f := policy.NewFSM(d)
		envLocality := map[string]int{}
		for i := 0; i+1 < nDevices; i += 2 {
			f.AddRule(policy.Rule{
				Name:       fmt.Sprintf("local-%d", i),
				Conditions: []policy.Condition{policy.EnvIs(devices[i]+"_attr", "b")},
				Device:     devices[i+1],
				Posture:    policy.Posture{BlockCommands: []string{"ON"}},
				Priority:   5,
			})
			envLocality[devices[i]+"_attr"] = part.GroupOf(devices[i])
		}
		f.AddRule(policy.Rule{
			Name: "global",
			Conditions: []policy.Condition{
				policy.DeviceIs(devices[0], policy.ContextSuspicious),
				policy.DeviceIs(devices[nDevices-1], policy.ContextSuspicious),
			},
			Device:   devices[0],
			Posture:  policy.Posture{Isolate: true},
			Priority: 9,
		})

		const events = 500
		// Flat: every event pays the global RTT.
		flatLatency := time.Duration(events) * globalRTT

		// Event mix: mostly routine state changes (local policy
		// consequences), plus occasional security events (backdoor
		// probes) on random devices — only those touching the
		// globally referenced devices escalate.
		h := controller.NewHierarchy(f, part, envLocality, nil)
		for e := 0; e < events; e++ {
			dev := devices[rng.Intn(nDevices)]
			if e%5 == 0 {
				h.HandleDeviceEvent(context.Background(), device.Event{Device: dev, Kind: device.EventBackdoorAccess, Detail: "probe"})
				continue
			}
			h.HandleDeviceEvent(context.Background(), device.Event{
				Device: dev,
				Kind:   device.EventStateChange,
				Detail: fmt.Sprintf("attr=%s", []string{"a", "b"}[rng.Intn(2)]),
			})
		}
		local, escalated := h.Metrics()
		_ = local
		hierLatency := time.Duration(escalated) * globalRTT
		t.AddRow(nDevices, events,
			flatLatency.Round(time.Millisecond),
			fmt.Sprintf("%d/%d", escalated, events),
			hierLatency.Round(time.Millisecond))
	}
	t.Note("local events are handled by the partition controller at function-call latency")
	return t
}

// RunAblationMicroMbox (A3) compares the µmbox platform choices: boot
// latency, per-device customization, and live reconfiguration.
func RunAblationMicroMbox() (*Table, error) {
	t := &Table{
		ID:      "A3",
		Title:   "µmbox platform: boot latency and agility",
		Columns: []string{"Platform", "Modeled boot", "100 per-device instances", "Live reconfig"},
	}
	for _, k := range []mbox.PlatformKind{mbox.PlatformFullVM, mbox.PlatformMicroVM, mbox.PlatformProcess} {
		mgr := mbox.NewManager(mbox.Server{Name: "s0", Slots: 256})
		mgr.TimeScale = 0 // account, don't sleep
		for i := 0; i < 100; i++ {
			if _, err := mgr.Launch(context.Background(), fmt.Sprintf("mb-%d", i), k, mbox.NewPipeline(&mbox.Logger{})); err != nil {
				return nil, err
			}
		}
		boots, mean, _ := mgr.Metrics()
		total := mean * time.Duration(boots)
		// Live reconfiguration cost: mean wall-clock of a pipeline
		// swap (averaged: a single swap is tens of nanoseconds).
		inst, _ := mgr.Instance("mb-0")
		const swaps = 1000
		start := time.Now()
		for i := 0; i < swaps; i++ {
			inst.Mbox.Pipeline().Replace(&mbox.Logger{}, mbox.NewRateLimiter(10, 10))
		}
		reconf := time.Since(start) / swaps
		t.AddRow(string(k), mboxBootMillis(k), total, reconf)
	}
	t.Note("full VMs cannot give every device its own customized security function; micro-VMs and processes can")
	return t, nil
}

// RunAblationFuzzCoverage (A4) compares model fuzzing against passive
// observation for cross-device interaction discovery. The fuzzer's
// command sampling uses the injected seed.
func RunAblationFuzzCoverage(seed int64) *Table {
	t := &Table{
		ID:      "A4",
		Title:   "Interaction discovery: model fuzzing vs passive observation",
		Columns: []string{"Trials", "Fuzz coverage", "Passive coverage"},
	}
	// Ground truth from two-command chains: deeper reachable
	// interactions (e.g. effects only visible from non-initial
	// configurations) that single probes miss.
	truth := learn.ExhaustiveInteractions(ablationWorld, 2, 3)
	for _, trials := range []int{3, 10, 50, 200} {
		fuzz := learn.NewFuzzer(ablationWorld, seed).Run(trials)
		passive := learn.PassiveObserve(ablationWorld, trials)
		t.AddRow(trials,
			fmt.Sprintf("%.0f%%", 100*learn.Coverage(fuzz, truth)),
			fmt.Sprintf("%.0f%%", 100*learn.Coverage(passive, truth)))
	}
	t.Note("ground truth: %d interactions from exhaustive enumeration over two-command chains", len(truth))
	return t
}

// ablationWorld builds the standard abstract smart home for A4.
func ablationWorld() *learn.World {
	lib := learn.StandardLibrary()
	w := learn.NewWorld(map[string]string{
		"temperature": "normal", "light": "dark", "smoke": "no",
		"window": "closed", "door": "locked", "alarm_sounding": "no",
	})
	for _, spec := range []struct{ name, class string }{
		{"plug", "plug"}, {"window", "window"}, {"bulb", "bulb"},
		{"lightsensor", "light-sensor"}, {"firealarm", "fire-alarm"},
		{"oven", "oven"}, {"lock", "lock"},
	} {
		m, ok := lib.Get(spec.class)
		if !ok {
			panic("missing model " + spec.class)
		}
		w.AddInstance(spec.name, m)
	}
	return w
}

// RunAblationReputation (A5) measures signature quality with and
// without the reputation/voting defense under adversarial
// contributors.
func RunAblationReputation(seed int64) *Table {
	t := &Table{
		ID:      "A5",
		Title:   "Crowdsourced signature quality: reputation voting vs accept-all",
		Columns: []string{"Scheme", "Good sigs live", "Poison sigs live", "Poison acceptance"},
	}
	rng := rand.New(rand.NewSource(seed))

	run := func(withVoting bool) (goodLive, poisonLive int) {
		repo := sigrepo.NewRepository("salt")
		honest := []string{"org-a", "org-b", "org-c", "org-d"}
		attackers := []string{"evil-x", "evil-y"}
		goodRule := `alert tcp any any -> any 80 (msg:"real attack"; content:"backdoor-token"; sid:%d;)`
		// Poison: a block rule that matches normal traffic (here: the
		// benign STATUS verb) — accepted blindly it causes denial of
		// service.
		poisonRule := `block tcp any any -> any 80 (msg:"poison"; content:"STATUS"; sid:%d;)`

		var goodIDs, poisonIDs []string
		for i := 0; i < 10; i++ {
			sig, err := repo.Publish(context.Background(), honest[i%len(honest)], "sku-x", fmt.Sprintf(goodRule, 100+i), "seen in logs")
			if err == nil {
				goodIDs = append(goodIDs, sig.ID)
			}
		}
		for i := 0; i < 10; i++ {
			sig, err := repo.Publish(context.Background(), attackers[i%len(attackers)], "sku-x", fmt.Sprintf(poisonRule, 200+i), "trust me")
			if err == nil {
				poisonIDs = append(poisonIDs, sig.ID)
			}
		}
		if withVoting {
			// Honest orgs test signatures against their traffic and
			// vote accordingly; attackers upvote their own poison
			// from sock puppets. Voter accountability burns the
			// socks' reputation after their first refuted
			// endorsements, so later poison can no longer clear
			// quarantine; we measure after the system has seen one
			// wave (the publish loop above is the second wave —
			// warm the reputations with a first wave here).
			warm := func(id string, poison bool) {
				if poison {
					_, _ = repo.Vote(context.Background(), "sock-1", id, true)
					_, _ = repo.Vote(context.Background(), "sock-2", id, true)
				}
				for _, voter := range honest {
					if rng.Float64() < 0.9 {
						_, _ = repo.Vote(context.Background(), voter, id, !poison)
					}
				}
			}
			for i := 0; i < 6; i++ {
				if sig, err := repo.Publish(context.Background(), honest[i%len(honest)], "sku-warm", fmt.Sprintf(goodRule, 300+i), ""); err == nil {
					warm(sig.ID, false)
				}
				if sig, err := repo.Publish(context.Background(), attackers[i%len(attackers)], "sku-warm", fmt.Sprintf(poisonRule, 400+i), ""); err == nil {
					warm(sig.ID, true)
				}
			}
			for _, id := range goodIDs {
				warm(id, false)
			}
			for _, id := range poisonIDs {
				warm(id, true)
			}
		} else {
			// Accept-all: every published signature goes live
			// immediately (clear threshold zero).
			repo2 := sigrepo.NewRepository("salt")
			repo2.ClearScore = -1e9
			goodIDs, poisonIDs = goodIDs[:0], poisonIDs[:0]
			for i := 0; i < 10; i++ {
				if sig, err := repo2.Publish(context.Background(), honest[i%len(honest)], "sku-x", fmt.Sprintf(goodRule, 100+i), ""); err == nil {
					goodIDs = append(goodIDs, sig.ID)
					_, _ = repo2.Vote(context.Background(), "anyone", sig.ID, true)
				}
			}
			for i := 0; i < 10; i++ {
				if sig, err := repo2.Publish(context.Background(), attackers[i%len(attackers)], "sku-x", fmt.Sprintf(poisonRule, 200+i), ""); err == nil {
					poisonIDs = append(poisonIDs, sig.ID)
					_, _ = repo2.Vote(context.Background(), "anyone", sig.ID, true)
				}
			}
			repo = repo2
		}
		for _, sig := range repo.Fetch("sku-x") {
			if strings.Contains(sig.Rule, "poison") {
				poisonLive++
			} else {
				goodLive++
			}
		}
		return goodLive, poisonLive
	}

	gl, pl := run(false)
	t.AddRow("accept-all (no voting)", fmt.Sprintf("%d/10", gl), fmt.Sprintf("%d/10", pl), fmt.Sprintf("%.0f%%", 100*float64(pl)/10))
	gl, pl = run(true)
	t.AddRow("reputation voting", fmt.Sprintf("%d/10", gl), fmt.Sprintf("%d/10", pl), fmt.Sprintf("%.0f%%", 100*float64(pl)/10))
	t.Note("poison = block rules matching benign traffic (crowdsourced denial of service)")
	return t
}
