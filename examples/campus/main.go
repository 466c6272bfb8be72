// Campus: a larger deployment exercising the scale machinery — 24
// devices across 8 rooms, interaction-frequency partitioning with
// hierarchical controllers, and the crowdsourced signature repository
// propagating a zero-day signature from the first victim to every
// other deployment running the same SKU.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"iotsec/internal/controller"
	"iotsec/internal/device"
	"iotsec/internal/policy"
	"iotsec/internal/sigrepo"
)

func main() {
	// --- hierarchical control plane over 8 rooms × 3 devices ---
	const rooms = 8
	var devices []string
	var edges []controller.InteractionEdge
	domain := policy.NewDomain()
	for r := 0; r < rooms; r++ {
		cam := fmt.Sprintf("room%d-cam", r)
		plug := fmt.Sprintf("room%d-plug", r)
		sensor := fmt.Sprintf("room%d-sensor", r)
		devices = append(devices, cam, plug, sensor)
		for _, d := range []string{cam, plug, sensor} {
			domain.AddDevice(d, policy.ContextNormal, policy.ContextSuspicious)
			domain.AddEnvVar(d+"_person", "yes", "no")
		}
		// In-room interactions are heavy; cross-room nearly absent.
		edges = append(edges,
			controller.InteractionEdge{A: cam, B: plug, Weight: 100},
			controller.InteractionEdge{A: cam, B: sensor, Weight: 80},
		)
	}
	edges = append(edges, controller.InteractionEdge{A: "room0-cam", B: "room7-plug", Weight: 1})

	fsm := policy.NewFSM(domain)
	envLocality := map[string]int{}
	part := controller.Partition(devices, edges, 3)
	for r := 0; r < rooms; r++ {
		cam := fmt.Sprintf("room%d-cam", r)
		plug := fmt.Sprintf("room%d-plug", r)
		fsm.AddRule(policy.Rule{
			Name:       fmt.Sprintf("room%d-gate", r),
			Conditions: []policy.Condition{policy.EnvIs(cam+"_person", "no")},
			Device:     plug,
			Posture:    policy.Posture{BlockCommands: []string{"ON"}},
			Priority:   5,
		})
		envLocality[cam+"_person"] = part.GroupOf(cam)
	}
	// One global rule: two suspicious cameras anywhere → isolate the
	// uplink-facing plugs.
	fsm.AddRule(policy.Rule{
		Name: "campus-lockdown",
		Conditions: []policy.Condition{
			policy.DeviceIs("room0-cam", policy.ContextSuspicious),
			policy.DeviceIs("room7-cam", policy.ContextSuspicious),
		},
		Device:   "room0-plug",
		Posture:  policy.Posture{Isolate: true},
		Priority: 9,
	})

	postures := 0
	hier := controller.NewHierarchy(fsm, part, envLocality, func(_ context.Context, dev string, p policy.Posture, _ uint64) {
		postures++
	})
	hier.GlobalDelay = 2 * time.Millisecond

	fmt.Printf("campus: %d devices in %d partitions (locality %.1f%%), %d local controllers\n",
		len(devices), len(part.Groups), 100*part.LocalityRatio(), hier.Locals())

	// Simulate a day of events: occupancy changes in every room.
	start := time.Now()
	const rounds = 50
	for i := 0; i < rounds; i++ {
		for r := 0; r < rooms; r++ {
			presence := "yes"
			if (i+r)%2 == 0 {
				presence = "no"
			}
			hier.HandleDeviceEvent(context.Background(), device.Event{
				Device: fmt.Sprintf("room%d-cam", r),
				Kind:   device.EventStateChange,
				Detail: "person=" + presence,
			})
		}
	}
	local, escalated := hier.Metrics()
	fmt.Printf("events: %d handled locally, %d escalated to the global controller (%.1f%%), wall %v\n",
		local, escalated, 100*float64(escalated)/float64(local+escalated), time.Since(start).Round(time.Millisecond))
	fmt.Printf("posture changes applied: %d\n\n", postures)

	// --- crowdsourced signature propagation ---
	repo := sigrepo.NewRepository("campus-salt")
	srv := sigrepo.NewServer(repo)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("signature repository on %s\n", addr)

	sku := device.SmartPlugProfile().SKU
	received := make(chan sigrepo.Signature, 1)

	subscriber, err := sigrepo.DialClient(addr, "campus-b")
	if err != nil {
		log.Fatal(err)
	}
	defer subscriber.Close()
	subscriber.SetOnNotify(func(sig sigrepo.Signature, priority bool) {
		received <- sig
	})
	if err := subscriber.Subscribe(sku); err != nil {
		log.Fatal(err)
	}

	// Campus A is hit first and shares the backdoor signature.
	victim, err := sigrepo.DialClient(addr, "campus-a")
	if err != nil {
		log.Fatal(err)
	}
	defer victim.Close()
	sig, err := victim.Publish(sku,
		`block tcp any any -> any 80 (msg:"wemo backdoor token"; content:"`+device.PlugBackdoorToken+`"; sid:9001;)`,
		"observed on our plugs after a break-in attempt from 10.3.7.9")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("campus-a published %s (quarantined=%v, contributor=%s)\n", sig.ID, sig.Quarantined, sig.Contributor)

	// Three other deployments confirm it.
	for i := 0; i < 3; i++ {
		voter, err := sigrepo.DialClient(addr, fmt.Sprintf("campus-%c", 'c'+i))
		if err != nil {
			log.Fatal(err)
		}
		if _, err := voter.Vote(sig.ID, true); err != nil {
			log.Fatal(err)
		}
		voter.Close()
	}

	timeout := time.NewTimer(3 * time.Second)
	defer timeout.Stop()
	select {
	case got := <-received:
		fmt.Printf("campus-b received the cleared signature %s for %s —\n  %s\n", got.ID, got.SKU, got.Rule)
		fmt.Println("  (the description was scrubbed of internal addresses:", got.Description, ")")
	case <-timeout.C:
		log.Fatal("signature never propagated")
	}
}
