// Command iotsecd runs a live IoTSec deployment: a simulated smart
// home (camera, Wemo plug + oven, fire alarm, window actuator,
// thermostat) under the combined Figure 3/4/5 policy, with the admin
// API served for cmd/mboxctl. The physical environment advances in
// real time (one tick per -tick).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"iotsec/internal/controller"
	"iotsec/internal/core"
	"iotsec/internal/forensics"
	"iotsec/internal/journal"
	"iotsec/internal/netsim"
	"iotsec/internal/openflow"
	"iotsec/internal/resilience"
	"iotsec/internal/sigrepo"
	"iotsec/internal/slo"
	"iotsec/internal/telemetry"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7700", "admin API address")
	tick := flag.Duration("tick", 250*time.Millisecond, "wall time per environment tick")
	telemetryAddr := flag.String("telemetry-addr", "",
		"serve /metrics, /debug/telemetry, /debug/journal and /debug/pprof on this address (empty = disabled)")
	debugRemote := flag.Bool("debug-remote", false,
		"allow non-loopback clients to reach the unauthenticated /debug/ surfaces (pprof, journal); off by default")
	sbAddr := flag.String("sb-addr", "127.0.0.1:0",
		"southbound (switch control) listen address; empty = southbound disabled")
	sbHeartbeat := flag.Duration("sb-heartbeat", openflow.DefaultHeartbeatInterval,
		"southbound heartbeat probe interval (<=0 disables liveness probing)")
	sbReconnectMax := flag.Duration("sb-reconnect-max", 5*time.Second,
		"cap on the switch agent's exponential reconnect backoff")
	sigrepoAddr := flag.String("sigrepo-addr", "",
		"crowdsourced signature repository address (empty = crowd learning disabled)")
	sigrepoIdentity := flag.String("sigrepo-identity", "gateway",
		"identity presented to the signature repository (pseudonymized server-side)")
	sigrepoOutbox := flag.String("sigrepo-outbox", "",
		"durable outbox file for publishes/votes queued while the repository is unreachable (empty = in-memory only)")
	sigrepoReconnectMax := flag.Duration("sigrepo-reconnect-max", 5*time.Second,
		"cap on the sigrepo link's exponential reconnect backoff")
	sloTarget := flag.Duration("slo-mttr-p99", 0,
		"detect→enforce MTTR objective at the -slo-quantile (0 = watchdog disabled; the MTTR pipeline itself is always on)")
	sloQuantile := flag.Float64("slo-quantile", 0.99,
		"quantile the MTTR objective is stated at")
	sloWindow := flag.Duration("slo-window", time.Minute,
		"SLO evaluation window")
	sloBurnFactor := flag.Float64("slo-burn-factor", 1.0,
		"error-budget multiplier per window: budget = (1-quantile)*factor of chains may miss the objective")
	sloChainTimeout := flag.Duration("slo-chain-timeout", 5*time.Second,
		"how long a detect→enforce chain may stay open before it counts as incomplete")
	ctrlHeartbeat := flag.Duration("ctrl-heartbeat", 0,
		"supervise partition-local controllers with this deadman heartbeat period (0 = supervision disabled)")
	ctrlCheckpoint := flag.Duration("ctrl-checkpoint", 2*time.Second,
		"checkpoint each partition's critical security state at this period (<0 disables periodic checkpoints)")
	ctrlFailMode := flag.String("ctrl-fail-mode", "rehome",
		"orphaned-partition fate after a controller death: rehome (least-loaded surviving local) or fail-global (degraded)")
	sloRecovery := flag.Duration("slo-recovery-p99", 0,
		"controller failover recovery objective at p99 (0 = recovery watchdog disabled)")
	fleetRollup := flag.Duration("fleet-rollup", time.Second,
		"push this gateway's telemetry rollups into the fleet aggregator at this interval and serve /debug/fleet (0 = disabled)")
	fleetSource := flag.String("fleet-source", "gateway",
		"shard name this gateway reports to the fleet aggregator as")
	profileLearnWindow := flag.Duration("profile-learn-window", 0,
		"observe device traffic for this long, then distill per-SKU behavior profiles (0 = no training window)")
	profileEnforce := flag.Bool("profile-enforce", false,
		"enforce learned/crowd SKU profiles as deny-by-default flow rules and quarantine rogue MACs")
	journalCap := flag.Int("journal-cap", 0,
		"forensic journal ring capacity in events (0 = default 8192); small caps exercise incident capture under eviction")
	forensicsDir := flag.String("forensics-dir", "",
		"durable incident store directory: incident-opening journal events pin their full trace chains here before ring eviction (empty = forensics disabled)")
	forensicsMaxBytes := flag.Int64("forensics-max-bytes", 0,
		"incident store size cap in bytes; oldest sealed segments are deleted over this (0 = default 64MiB)")
	forensicsSegmentBytes := flag.Int64("forensics-segment-bytes", 0,
		"incident store segment rotation threshold in bytes (0 = default 4MiB)")
	flag.Parse()

	if *journalCap > 0 {
		// Replace the process-wide ring before anything journals to it.
		journal.Default = journal.New(*journalCap)
		fmt.Printf("iotsecd: journal ring capped at %d events\n", *journalCap)
	}

	bi := telemetry.RegisterBuildInfo(telemetry.Default, "iotsecd")
	fmt.Printf("iotsecd: version %s (%s)\n", bi.Version, bi.GoVersion)

	p, err := core.DemoHome()
	if err != nil {
		fmt.Fprintf(os.Stderr, "iotsecd: %v\n", err)
		os.Exit(1)
	}
	p.Start()
	defer p.Stop()
	p.RegisterHealth(telemetry.Default.Health())

	// The MTTR pipeline is always on: it taps the forensic journal
	// (drop-oldest, zero cost on the hot path when idle) and folds
	// trace-correlated detect→enforce chains into live histograms.
	tracker := slo.NewTracker(journal.Default, slo.Options{ChainTimeout: *sloChainTimeout})
	defer tracker.Close()
	tracker.RegisterHealth(telemetry.Default.Health())

	if *sloTarget > 0 {
		watchdog := slo.NewWatchdog(tracker, slo.Objectives{
			Target:     *sloTarget,
			Quantile:   *sloQuantile,
			Window:     *sloWindow,
			BurnFactor: *sloBurnFactor,
		}, slo.WatchdogOptions{
			OnBurn: func(ev slo.Evaluation) {
				fmt.Fprintf(os.Stderr, "iotsecd: SLO burn: window p%g=%s (%d/%d violating)\n",
					*sloQuantile*100, ev.Quantile, ev.OverTarget+ev.Incomplete, ev.Total)
			},
			OnRecover: func(ev slo.Evaluation) {
				fmt.Fprintf(os.Stderr, "iotsecd: SLO burn cleared (window p%g=%s)\n", *sloQuantile*100, ev.Quantile)
			},
		})
		watchdog.Start()
		defer watchdog.Stop()
		fmt.Printf("iotsecd: SLO watchdog armed: %s\n", watchdog.Objectives())
	}

	if *sbAddr != "" {
		sb, err := p.AttachSouthbound(core.SouthboundOptions{
			Addr:              *sbAddr,
			HeartbeatInterval: *sbHeartbeat,
			Agent:             netsim.AgentOptions{Backoff: resilience.BackoffOptions{Cap: *sbReconnectMax}},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "iotsecd: southbound: %v\n", err)
			os.Exit(1)
		}
		defer sb.Close()
		sb.RegisterHealth(telemetry.Default.Health())
		fmt.Printf("iotsecd: southbound on %s (heartbeat %s)\n", sb.Addr, *sbHeartbeat)
	}

	if *sigrepoAddr != "" {
		link, err := p.ConnectSigrepo(*sigrepoAddr, *sigrepoIdentity, sigrepo.ManagedOptions{
			Backoff:    resilience.BackoffOptions{Cap: *sigrepoReconnectMax},
			OutboxPath: *sigrepoOutbox,
			OnStateChange: func(s resilience.State) {
				fmt.Printf("iotsecd: sigrepo link %s\n", s)
			},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "iotsecd: sigrepo: %v\n", err)
			os.Exit(1)
		}
		defer link.Close()
		link.RegisterHealth(telemetry.Default.Health(), *sigrepoIdentity)
		fmt.Printf("iotsecd: crowd learning via %s as %q (reconnect cap %s)\n",
			*sigrepoAddr, *sigrepoIdentity, *sigrepoReconnectMax)
	}

	var sup *controller.Supervisor
	if *ctrlHeartbeat > 0 {
		cfm, ok := controller.ParseFailMode(*ctrlFailMode)
		if !ok {
			fmt.Fprintf(os.Stderr, "iotsecd: bad -ctrl-fail-mode %q (rehome or fail-global)\n", *ctrlFailMode)
			os.Exit(2)
		}
		var fleet *controller.FleetAggregator
		if *fleetRollup > 0 {
			fleet = p.Global.Fleet()
		}
		_, sup = p.SuperviseControllers(core.SupervisionOptions{
			Heartbeat:       *ctrlHeartbeat,
			CheckpointEvery: *ctrlCheckpoint,
			FailMode:        cfm,
			Fleet:           fleet,
			OnFailover: func(rec controller.FailoverRecord) {
				fmt.Fprintf(os.Stderr, "iotsecd: partition %d failed over to %s in %s (%d quarantines re-pushed)\n",
					rec.Group, rec.Target, rec.Recovery, rec.QuarantinesRepushed)
			},
		})
		sup.Start()
		defer sup.Stop()
		fmt.Printf("iotsecd: controller supervision armed (heartbeat %s, checkpoint %s, %s mode)\n",
			*ctrlHeartbeat, *ctrlCheckpoint, cfm)
	}

	if *sloRecovery > 0 {
		// The recovery-MTTR histogram rides the same SLO watchdog tap as
		// detect→enforce, labeled so the two series stay distinct.
		rw := slo.NewWatchdogSource(slo.HistogramSource{H: controller.RecoveryHistogram()}, slo.Objectives{
			Target:     *sloRecovery,
			Quantile:   0.99,
			Window:     *sloWindow,
			BurnFactor: *sloBurnFactor,
		}, slo.WatchdogOptions{
			ID: "slo-recovery",
			OnBurn: func(ev slo.Evaluation) {
				fmt.Fprintf(os.Stderr, "iotsecd: recovery SLO burn: window p99=%s (%d/%d violating)\n",
					ev.Quantile, ev.OverTarget+ev.Incomplete, ev.Total)
			},
			OnRecover: func(ev slo.Evaluation) {
				fmt.Fprintf(os.Stderr, "iotsecd: recovery SLO burn cleared (window p99=%s)\n", ev.Quantile)
			},
		})
		rw.Start()
		defer rw.Stop()
		fmt.Printf("iotsecd: recovery SLO watchdog armed: %s\n", rw.Objectives())
	}

	var plane *core.ProfilePlane
	if *profileLearnWindow > 0 || *profileEnforce {
		plane = p.EnableProfiles(core.ProfileOptions{Enforce: *profileEnforce})
		plane.RegisterHealth(telemetry.Default.Health())
		if *profileEnforce {
			fmt.Println("iotsecd: profile enforcement armed (deny-by-default + rogue lockdown)")
		}
		if *profileLearnWindow > 0 {
			plane.StartLearning()
			fmt.Printf("iotsecd: profile training window open for %s\n", *profileLearnWindow)
			timer := time.AfterFunc(*profileLearnWindow, func() {
				profs := plane.FinishLearning(context.Background())
				fmt.Printf("iotsecd: profile training done: %d SKU profile(s) distilled\n", len(profs))
			})
			defer timer.Stop()
		}
	}

	var capt *forensics.Capturer
	if *forensicsDir != "" {
		store, err := forensics.OpenStore(*forensicsDir, forensics.StoreOptions{
			MaxBytes:     *forensicsMaxBytes,
			SegmentBytes: *forensicsSegmentBytes,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "iotsecd: forensics: %v\n", err)
			os.Exit(1)
		}
		defer store.Close()
		// Close before the deferred store.Close above: Close force-seals
		// open incidents into the store so in-flight chains survive a
		// restart.
		capt = p.EnableForensics(forensics.Options{Store: store, Shard: *fleetSource})
		defer capt.Close()
		st := store.Stats()
		fmt.Printf("iotsecd: incident forensics on %s (%d incident(s) recovered, shard %q)\n",
			*forensicsDir, st.Incidents, *fleetSource)
	}

	if *fleetRollup > 0 {
		// The gateway reports itself as one shard of the fleet plane;
		// the tracker's e2e histogram supplies detect→enforce latency.
		report := p.StartFleetSelfReport(*fleetSource, *fleetRollup, tracker.E2E())
		defer report.Stop()
		p.Global.Fleet().ExportTelemetry(telemetry.Default, *fleetSource)
		fmt.Printf("iotsecd: fleet rollups every %s as %q\n", *fleetRollup, *fleetSource)
	}

	if *telemetryAddr != "" {
		p.Switch.ExportTelemetry(telemetry.Default)
		mounts := []telemetry.Mount{{Pattern: "/debug/journal", Handler: journal.Default.Handler()}}
		if plane != nil {
			mounts = append(mounts, telemetry.Mount{Pattern: "/debug/profiles", Handler: plane.Engine().Handler()})
		}
		if capt != nil {
			mounts = append(mounts, telemetry.Mount{Pattern: "/debug/incidents", Handler: capt.Handler()})
		}
		if *fleetRollup > 0 {
			mounts = append(mounts, telemetry.Mount{Pattern: "/debug/fleet", Handler: p.Global.Fleet().Handler()})
			mounts = append(mounts, telemetry.Mount{Pattern: "/debug/fleet/incidents", Handler: p.Global.Fleet().IncidentsHandler()})
		}
		if sup != nil {
			mounts = append(mounts, telemetry.Mount{Pattern: "/debug/controllers", Handler: sup.Handler()})
		}
		tsrv, taddr, err := telemetry.Default.Serve(*telemetryAddr, mounts...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "iotsecd: telemetry: %v\n", err)
			os.Exit(1)
		}
		defer tsrv.Close()
		if *debugRemote {
			tsrv.AllowRemoteDebug()
		}
		fmt.Printf("iotsecd: telemetry on http://%s/metrics\n", taddr)
	}

	admin, addr, err := p.ServeAdmin(*listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "iotsecd: %v\n", err)
		os.Exit(1)
	}
	defer admin.Close()
	fmt.Printf("iotsecd: admin API on %s (try: mboxctl -addr %s status)\n", addr, addr)

	// Surface state changes on stdout.
	p.Global.View.Observe(func(_ context.Context, c controller.ViewChange) {
		fmt.Printf("iotsecd: [v%d] %s = %s (%s) trace=%d\n", c.Version, c.Var, c.Value, c.Reason, c.TraceID)
	})

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(*tick)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			fmt.Println("\niotsecd: shutting down")
			return
		case <-ticker.C:
			p.Env.Step()
		}
	}
}
