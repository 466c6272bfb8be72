package core

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"iotsec/internal/controller"
	"iotsec/internal/device"
	"iotsec/internal/netsim"
	"iotsec/internal/packet"
	"iotsec/internal/policy"
	"iotsec/internal/profile"
	"iotsec/internal/resilience"
	"iotsec/internal/sigrepo"
)

// crowdCamPlatform builds a minimal platform managing one camera, with
// the profile plane in the given mode.
func crowdCamPlatform(t *testing.T, name, ip string, opts ProfileOptions) (*Platform, *ProfilePlane, *device.Camera) {
	t.Helper()
	d := policy.NewDomain()
	d.AddDevice(name, policy.ContextNormal, policy.ContextSuspicious)
	p, err := New(Options{Policy: policy.NewFSM(d)})
	if err != nil {
		t.Fatal(err)
	}
	plane := p.EnableProfiles(opts)
	cam := device.NewCamera(name, packet.MustParseIPv4(ip))
	if _, err := p.AddDevice(cam.Device); err != nil {
		t.Fatal(err)
	}
	p.Start()
	t.Cleanup(p.Stop)
	return p, plane, cam
}

// countProfileSigs counts cleared profile-payload signatures for a SKU.
func countProfileSigs(repo *sigrepo.Repository, sku string) int {
	n := 0
	for _, sig := range repo.Fetch(sku) {
		if profile.IsEncoded(sig.Rule) {
			n++
		}
	}
	return n
}

// TestProfileCrowdRoundTrip is the lifecycle test: deployment A learns
// a SKU profile and publishes it through the crowd repository;
// deployment B — same SKU, no training window of its own — fetches it
// over its supervised sigrepo session, compiles it, and pushes
// enforcement onto its own switch.
func TestProfileCrowdRoundTrip(t *testing.T) {
	dumpJournalOnFailure(t)
	repo := sigrepo.NewRepository("round-trip-salt")
	trustIdentity(repo, "gwA")
	srv := sigrepo.NewServer(repo)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Deployment A: learn and publish.
	pa, planeA, camA := crowdCamPlatform(t, "crtcam", "10.0.5.10", ProfileOptions{})
	sku := camA.Device.Profile.SKU
	linkA, err := pa.ConnectSigrepo(addr, "gwA")
	if err != nil {
		t.Fatal(err)
	}
	defer linkA.Close()

	clientA := newClient(t, pa, "10.0.5.200")
	got := udpSink(t, clientA.Stack, 9000, "checkin")
	planeA.StartLearning()
	if err := camA.Device.Stack().SendUDP(clientA.Stack.IP(), 9000, 33000, []byte("checkin")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "deployment A training traffic", func() bool { return got.Load() >= 1 })
	profs := planeA.FinishLearning(context.Background())
	if len(profs) != 1 {
		t.Fatalf("deployment A distilled %d profiles", len(profs))
	}
	waitFor(t, "profile cleared in the repository", func() bool {
		return countProfileSigs(repo, sku) == 1
	})

	// Deployment B: enforce mode, steering live, zero local learning.
	pb, planeB, camB := crowdCamPlatform(t, "crtsub", "10.0.6.10", ProfileOptions{Enforce: true})
	s := controller.NewSteering(nil)
	saddr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	agent, err := netsim.ConnectAgent(pb.Switch, saddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agent.Stop)
	pb.UseSteering(s)
	waitFor(t, "deployment B switch", func() bool { return strings.Contains(s.String(), "1 switches") })

	linkB, err := pb.ConnectSigrepo(addr, "gwB")
	if err != nil {
		t.Fatal(err)
	}
	defer linkB.Close()

	// The backfilled crowd profile installs, compiles, and lands as
	// deny-by-default rules on B's switch.
	waitFor(t, "crowd profile installed on B", func() bool {
		_, ok := planeB.Engine().Profile(sku)
		return ok
	})
	waitFor(t, "B device enforced", func() bool {
		names := planeB.Engine().EnforcedDevices()
		return len(names) == 1 && names[0] == "crtsub"
	})
	waitFor(t, "deny floor on B's switch", func() bool {
		n := 0
		for _, e := range pb.Switch.Table().Entries() {
			if e.Priority == profile.PriorityDeny {
				n++
			}
		}
		return n >= 2
	})

	// The crowd profile still authorizes the SKU's habit — with the
	// deployment-internal endpoint scrubbed to "any" on the way
	// through the repository (topology privacy), and pinned to B's own
	// device identity at compile time.
	crowd, _ := planeB.Engine().Profile(sku)
	if !crowd.Allows("udp", 33000, 9000, packet.MustParseIPv4("203.0.113.77")) {
		t.Fatalf("crowd profile lost the learned service or kept a pinned internal remote: %+v", crowd.Services)
	}
	// And B's engine checks its own device against it: a frame from
	// camB outside the allowlist is a violation.
	if crowd.Allows("udp", 1, 2323, packet.MustParseIPv4("203.0.113.77")) {
		t.Fatal("crowd profile is not deny-by-default")
	}
	_ = camB
}

// TestProfilePublishSurvivesLinkLoss is the chaos case: the sigrepo
// session dies before the training window closes, the profile publish
// queues in the PR 4 durable outbox, and on reconnect it converges to
// exactly one cleared signature in the repository — no loss, no dupes.
func TestProfilePublishSurvivesLinkLoss(t *testing.T) {
	dumpJournalOnFailure(t)
	repo := sigrepo.NewRepository("chaos-salt")
	trustIdentity(repo, "gw-chaos")
	trustIdentity(repo, "seed-pub")
	srv := sigrepo.NewServer(repo)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	p, plane, cam := crowdCamPlatform(t, "chcam", "10.0.7.10", ProfileOptions{})
	sku := cam.Device.Profile.SKU
	plan := resilience.NewFaultPlan(33)
	link, err := p.ConnectSigrepoOpts(addr, "gw-chaos", sigrepo.ManagedOptions{
		Backoff: resilience.BackoffOptions{Base: 5 * time.Millisecond, Cap: 25 * time.Millisecond, Seed: 9},
		Dial: func(a string) (net.Conn, error) {
			c, err := net.DialTimeout("tcp", a, time.Second)
			if err != nil {
				return nil, err
			}
			return resilience.WrapConn(c, plan), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	client := newClient(t, p, "10.0.7.200")
	got := udpSink(t, client.Stack, 9000, "checkin")
	plane.StartLearning()
	if err := cam.Device.Stack().SendUDP(client.Stack.IP(), 9000, 33000, []byte("checkin")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "training traffic", func() bool { return got.Load() >= 1 })

	// Kill the link mid-session; a push from another contributor
	// forces traffic over the dying conn so the session collapses.
	plan.SetKillRate(1)
	if _, err := repo.Publish(context.Background(), "seed-pub", sku, clearedRule(77), "d"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "link degraded", func() bool { return link.Managed().State() == resilience.Degraded })

	// The window closes while the repository is unreachable: the
	// publish must land in the durable outbox, not on the floor.
	profs := plane.FinishLearning(context.Background())
	if len(profs) != 1 {
		t.Fatalf("distilled %d profiles", len(profs))
	}
	if countProfileSigs(repo, sku) != 0 {
		t.Fatal("profile reached the repository over a dead link?")
	}

	// Heal the link: the outbox drains and the profile clears exactly
	// once.
	plan.SetKillRate(0)
	waitFor(t, "outbox delivery after reconnect", func() bool {
		return countProfileSigs(repo, sku) >= 1
	})
	// Convergence means zero dupes: give replay/retry paths a moment
	// to misbehave, then assert exactly one.
	time.Sleep(100 * time.Millisecond)
	if n := countProfileSigs(repo, sku); n != 1 {
		t.Fatalf("profile signatures in repo = %d, want exactly 1 (zero dupes)", n)
	}
}
