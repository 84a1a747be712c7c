package fabric

import (
	"testing"

	"repro/internal/sim"
)

// bench_test.go — microbenchmarks and the allocation pin of the fabric's
// send path, benchstat-friendly: run with
//
//	go test ./internal/fabric -run '^$' -bench Send -count 10 | benchstat -
//
// and compare against the Courier variants to see what retiring the
// process-per-message transport bought. The two shapes are the two ways the
// simulator loads the fabric: a marker flood (many small messages, every
// pair, long routes) and a checkpoint burst (few large messages packetized
// onto the one path to the host).

// benchNet builds either transport on a fresh engine.
func benchNet(cfg Config, courier bool) (*sim.Engine, transport) {
	e := sim.New()
	if courier {
		return e, newCourierNet(e, cfg)
	}
	return e, New(e, cfg)
}

// benchAllToAll: 64-byte messages from every node of a 16x16 mesh to every
// 8th other node, all injected at time zero. One iteration is one flood of
// 7,936 messages.
func benchAllToAll(b *testing.B, courier bool) {
	cfg := testConfig()
	cfg.MeshW, cfg.MeshH = 16, 16
	nodes := cfg.Nodes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, net := benchNet(cfg, courier)
		delivered, sent := 0, 0
		for id := 0; id < nodes; id++ {
			net.SetDeliver(NodeID(id), func(*Envelope) { delivered++ })
		}
		for src := 0; src < nodes; src++ {
			for dst := src % 8; dst < nodes; dst += 8 {
				if dst != src {
					net.Send(nil, &Envelope{Src: NodeID(src), Dst: NodeID(dst), Size: 64})
					sent++
				}
			}
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		if delivered != sent {
			b.Fatalf("delivered %d of %d messages", delivered, sent)
		}
		e.Shutdown()
	}
}

func BenchmarkSendAllToAll(b *testing.B)        { benchAllToAll(b, false) }
func BenchmarkSendAllToAllCourier(b *testing.B) { benchAllToAll(b, true) }

// benchPacketized: 1 MiB from every node of the default mesh to the host in
// 4 KiB packets. One iteration is 8 messages, 2,048 packets, 7,168
// packet-hops, almost all of them contending for the host link.
func benchPacketized(b *testing.B, courier bool) {
	cfg := testConfig()
	cfg.PacketBytes = 4096
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, net := benchNet(cfg, courier)
		delivered := 0
		net.SetDeliver(cfg.Host(), func(*Envelope) { delivered++ })
		for src := 0; src < cfg.Nodes(); src++ {
			net.Send(nil, &Envelope{Src: NodeID(src), Dst: cfg.Host(), Size: 1 << 20})
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		if delivered != cfg.Nodes() {
			b.Fatalf("host received %d of %d images", delivered, cfg.Nodes())
		}
		e.Shutdown()
	}
}

func BenchmarkSendPacketized(b *testing.B)        { benchPacketized(b, false) }
func BenchmarkSendPacketizedCourier(b *testing.B) { benchPacketized(b, true) }

// TestAllocsSendSteadyState pins a remote Send, through every packet of every
// hop to delivery, at the two objects a message is: its flight record and
// the flight's bound step callback. The sources' sequencing rows exist and
// the event queue is warm, so anything above that is steady-state allocation
// creeping back into the per-packet path.
func TestAllocsSendSteadyState(t *testing.T) {
	cfg := testConfig()
	cfg.PacketBytes = 512
	e := sim.New()
	n := New(e, cfg)
	delivered := 0
	n.SetDeliver(7, func(*Envelope) { delivered++ })
	n.SetDeliver(cfg.Host(), func(*Envelope) { delivered++ })
	envs := []*Envelope{
		{Src: 0, Dst: 7, Size: 5000},          // 10 packets over 4 hops
		{Src: 7, Dst: cfg.Host(), Size: 5000}, // contends with the next for the host link
		{Src: 3, Dst: cfg.Host(), Size: 64},
	}
	cycle := func() {
		for _, env := range envs {
			n.Send(nil, env)
		}
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	cycle() // allocate the sources' rows, grow the event queue
	allocs := testing.AllocsPerRun(200, cycle)
	if want := float64(2 * len(envs)); allocs != want {
		t.Fatalf("steady-state Send allocates %.1f objects per %d messages, want %.0f", allocs, len(envs), want)
	}
	if delivered != 201*len(envs)+len(envs) || n.inFlight() != 0 {
		t.Fatalf("delivered %d, %d in flight", delivered, n.inFlight())
	}
}

// TestAllocsSendColdPairs pins the other half: a pair's first message costs
// what any message costs. One flood of the all-to-all benchmark's shape on a
// fresh network — 7,936 messages, every pair used exactly once — allocates
// the steady state's two objects per message plus one sequencing row per
// source; the slack covers the event queue growing to hold the flood. A
// per-pair route record, map entry or path slice would add 7,936 or more
// (the per-pair route table this replaced: ≈74,000 for the same flood).
func TestAllocsSendColdPairs(t *testing.T) {
	cfg := testConfig()
	cfg.MeshW, cfg.MeshH = 16, 16
	nodes := cfg.Nodes()
	var envs []*Envelope
	for src := 0; src < nodes; src++ {
		for dst := src % 8; dst < nodes; dst += 8 {
			if dst != src {
				envs = append(envs, &Envelope{Src: NodeID(src), Dst: NodeID(dst), Size: 64})
			}
		}
	}
	// AllocsPerRun calls its function once to warm up and once to measure:
	// each call floods a network of its own.
	var engs [2]*sim.Engine
	var nets [2]*Network
	delivered := 0
	for i := range nets {
		engs[i] = sim.New()
		nets[i] = New(engs[i], cfg)
		for id := 0; id < nodes; id++ {
			nets[i].SetDeliver(NodeID(id), func(*Envelope) { delivered++ })
		}
	}
	call := 0
	allocs := testing.AllocsPerRun(1, func() {
		e, n := engs[call], nets[call]
		call++
		for _, env := range envs {
			n.Send(nil, env)
		}
		runDrained(t, e, n)
	})
	if limit := float64(2*len(envs) + nodes + 64); allocs > limit {
		t.Fatalf("a flood over %d cold pairs allocates %.0f objects, want at most 2 per message + 1 per source + 64 = %.0f", len(envs), allocs, limit)
	}
	if delivered != 2*len(envs) {
		t.Fatalf("delivered %d of %d", delivered, 2*len(envs))
	}
}
