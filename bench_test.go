package iotsec_test

import (
	"fmt"
	"testing"
	"time"

	"iotsec/internal/experiment"
	"iotsec/internal/ids"
	"iotsec/internal/learn"
	"iotsec/internal/mbox"
	"iotsec/internal/openflow"
	"iotsec/internal/packet"
	"iotsec/internal/policy"
	"iotsec/internal/telemetry"
)

// --- Paper tables & figures: one benchmark per artifact. Each runs
// the full experiment driver and asserts its headline outcome, so
// `go test -bench=.` regenerates every row the paper reports. ---

func BenchmarkTable1VulnerabilityCases(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiment.RunTable1()
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) != 7 {
			b.Fatalf("rows = %d", len(tbl.Rows))
		}
	}
}

func BenchmarkTable2CrossDevicePolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiment.RunTable2(int64(i + 1))
		if len(tbl.Rows) != 3 {
			b.Fatal("wrong row count")
		}
	}
}

func BenchmarkFigure1DefenseComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunFigure1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2Architecture(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunFigure2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3PolicyFSM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunFigure3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4PasswordProxy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunFigure4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5CrossDevicePolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunFigure5(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ---

func BenchmarkAblationStatePruning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiment.RunAblationStatePruning()
	}
}

func BenchmarkAblationHierarchicalControl(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiment.RunAblationHierarchy(2*time.Millisecond, 11)
	}
}

func BenchmarkAblationMicroMbox(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunAblationMicroMbox(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFuzzCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiment.RunAblationFuzzCoverage(5)
	}
}

func BenchmarkAblationReputation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiment.RunAblationReputation(int64(i + 3))
	}
}

func BenchmarkAblationConsistency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiment.RunAblationConsistency(int64(i + 7))
	}
}

// --- Component microbenchmarks: the per-packet costs that determine
// whether per-device µmboxes are affordable (§5.2). ---

func benchPacket() []byte {
	src, dst := packet.MustParseIPv4("10.0.0.1"), packet.MustParseIPv4("10.0.0.2")
	tcp := &packet.TCP{SrcPort: 40000, DstPort: 80, Flags: packet.TCPPsh | packet.TCPAck}
	tcp.SetNetworkForChecksum(src, dst)
	buf := packet.NewSerializeBuffer()
	err := packet.SerializeLayers(buf,
		&packet.Ethernet{SrcMAC: packet.MACAddress{2, 0, 0, 0, 0, 1}, DstMAC: packet.MACAddress{2, 0, 0, 0, 0, 2}, EtherType: packet.EtherTypeIPv4},
		&packet.IPv4{SrcIP: src, DstIP: dst, Protocol: packet.IPProtocolTCP},
		tcp,
		packet.NewPayload([]byte("IOT/1 STATUS\nauth: admin:admin\n")),
	)
	if err != nil {
		panic(err)
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out
}

func BenchmarkPacketDecode(b *testing.B) {
	raw := benchPacket()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := packet.Decode(raw, packet.LayerTypeEthernet)
		if p.TCP() == nil {
			b.Fatal("decode failed")
		}
	}
}

func BenchmarkPacketSerialize(b *testing.B) {
	src, dst := packet.MustParseIPv4("10.0.0.1"), packet.MustParseIPv4("10.0.0.2")
	payload := packet.NewPayload([]byte("IOT/1 STATUS\n"))
	buf := packet.NewSerializeBuffer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tcp := &packet.TCP{SrcPort: 40000, DstPort: 80}
		tcp.SetNetworkForChecksum(src, dst)
		err := packet.SerializeLayers(buf,
			&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
			&packet.IPv4{SrcIP: src, DstIP: dst, Protocol: packet.IPProtocolTCP},
			tcp, payload,
		)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlowTableLookup(b *testing.B) {
	raw := benchPacket()
	decoded := packet.Decode(raw, packet.LayerTypeEthernet)
	for _, size := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("entries=%d", size), func(b *testing.B) {
			tbl := openflow.NewFlowTable()
			for i := 0; i < size; i++ {
				tbl.Insert(openflow.FlowEntry{
					Match:    openflow.MatchAll().WithTpDst(uint16(i + 1000)),
					Priority: uint16(i),
					Actions:  []openflow.Action{openflow.Output(1)},
				})
			}
			// The matching entry sits at the bottom.
			tbl.Insert(openflow.FlowEntry{
				Match:   openflow.MatchAll().WithTpDst(80),
				Actions: []openflow.Action{openflow.Output(2)},
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := tbl.Lookup(decoded, 1, len(raw)); !ok {
					b.Fatal("miss")
				}
			}
		})
	}
}

func BenchmarkIDSEngine(b *testing.B) {
	raw := benchPacket()
	decoded := packet.Decode(raw, packet.LayerTypeEthernet)
	for _, nRules := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("rules=%d", nRules), func(b *testing.B) {
			rules := make([]*ids.Rule, 0, nRules)
			for i := 0; i < nRules; i++ {
				r, err := ids.ParseRule(fmt.Sprintf(
					`alert tcp any any -> any 80 (msg:"r%d"; content:"needle%04d"; sid:%d;)`, i, i, i+1))
				if err != nil {
					b.Fatal(err)
				}
				rules = append(rules, r)
			}
			// One rule that actually matches.
			hit, _ := ids.ParseRule(`alert tcp any any -> any 80 (msg:"creds"; content:"admin:admin"; sid:99999;)`)
			rules = append(rules, hit)
			engine := ids.NewEngine(rules)
			b.SetBytes(int64(len(raw)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(engine.Match(decoded)) != 1 {
					b.Fatal("wrong alert count")
				}
			}
		})
	}
}

func BenchmarkMboxPipeline(b *testing.B) {
	raw := benchPacket()
	rules, _ := ids.ParseRules(`alert tcp any any -> any 80 (msg:"creds"; content:"admin:admin"; sid:1;)`)
	pipe := mbox.NewPipeline(
		&mbox.Logger{},
		mbox.NewStatefulFirewall(80),
		&mbox.IDSElement{Engine: ids.NewEngine(rules)},
	)
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := &mbox.Context{
			Frame:  raw,
			Packet: packet.Decode(raw, packet.LayerTypeEthernet),
			Dir:    mbox.ToDevice,
		}
		pipe.Process(ctx)
	}
}

func BenchmarkPolicyLookup(b *testing.B) {
	d := policy.NewDomain()
	for i := 0; i < 40; i++ {
		d.AddDevice(fmt.Sprintf("dev%02d", i))
	}
	d.AddEnvVar("occupancy", "away", "home")
	f := policy.NewFSM(d)
	for i := 0; i < 10; i++ {
		f.AddRule(policy.Rule{
			Name:       fmt.Sprintf("r%d", i),
			Conditions: []policy.Condition{policy.DeviceIs(fmt.Sprintf("dev%02d", i), policy.ContextSuspicious)},
			Device:     fmt.Sprintf("dev%02d", (i+1)%40),
			Posture:    policy.Posture{BlockCommands: []string{"ON"}},
			Priority:   5,
		})
	}
	state := d.DefaultState()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Lookup(state)
	}
}

// BenchmarkTelemetryOverhead quantifies the cost of the observability
// subsystem on the hot path: a bare counter increment, and the µmbox
// pipeline with instrumentation on vs off. The paper's per-device
// µmbox argument (§5.2) only holds if telemetry is close to free —
// the counter increment must stay under 20ns and the instrumented
// pipeline within 5% of the bare one.
func BenchmarkTelemetryOverhead(b *testing.B) {
	b.Run("counter-inc", func(b *testing.B) {
		reg := telemetry.NewRegistry()
		c := reg.NewCounter("iotsec_bench_ops_total", "bench counter")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})

	mkPipe := func() (*mbox.Pipeline, *mbox.Context) {
		raw := benchPacket()
		rules, _ := ids.ParseRules(`alert tcp any any -> any 80 (msg:"creds"; content:"admin:admin"; sid:1;)`)
		pipe := mbox.NewPipeline(
			&mbox.Logger{},
			mbox.NewStatefulFirewall(80),
			&mbox.IDSElement{Engine: ids.NewEngine(rules)},
		)
		ctx := &mbox.Context{
			Frame:  raw,
			Packet: packet.Decode(raw, packet.LayerTypeEthernet),
			Dir:    mbox.ToDevice,
		}
		return pipe, ctx
	}

	b.Run("pipeline-bare", func(b *testing.B) {
		pipe, ctx := mkPipe()
		pipe.Instrument(false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pipe.Process(ctx)
		}
	})
	b.Run("pipeline-instrumented", func(b *testing.B) {
		pipe, ctx := mkPipe()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pipe.Process(ctx)
		}
	})
}

func BenchmarkAttackGraphSearch(b *testing.B) {
	build := func() *learn.World {
		lib := learn.StandardLibrary()
		w := learn.NewWorld(map[string]string{
			"temperature": "normal", "light": "dark", "smoke": "no",
			"window": "closed", "door": "locked",
		})
		for _, spec := range []struct{ name, class string }{
			{"plug", "plug"}, {"window", "window"}, {"bulb", "bulb"},
			{"firealarm", "fire-alarm"}, {"oven", "oven"}, {"lock", "lock"},
		} {
			m, _ := lib.Get(spec.class)
			w.AddInstance(spec.name, m)
		}
		return w
	}
	search := &learn.AttackSearch{
		Build:      build,
		Vulnerable: map[string]bool{"plug": true},
		MaxDepth:   8,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path, _ := search.FindAttack(learn.GoalEnv("window", "open"))
		if path == nil {
			b.Fatal("attack not found")
		}
	}
}
