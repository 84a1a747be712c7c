package fabric

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// TestPacketizationLetsSmallMessagesInterleave: with packet-granularity link
// scheduling, a small message sent shortly after a huge one (to a different
// destination) must not wait for the whole bulk transfer.
func TestPacketizationLetsSmallMessagesInterleave(t *testing.T) {
	cfg := testConfig()
	cfg.SendOverhead = 0
	cfg.PacketBytes = 4096
	e := sim.New()
	n := New(e, cfg)
	var smallAt sim.Time
	n.SetDeliver(2, func(env *Envelope) {})
	n.SetDeliver(1, func(env *Envelope) { smallAt = e.Now() })
	e.Spawn("sender", func(p *sim.Proc) {
		// 3 MB bulk transfer 0→2 occupies the 0→1 link (XY route) for ~2s.
		n.Send(p, &Envelope{Src: 0, Dst: 2, Size: 3_000_000})
		n.Send(p, &Envelope{Src: 0, Dst: 1, Size: 200})
	})
	runDrained(t, e, n)
	if smallAt > sim.Time(50*sim.Millisecond) {
		t.Fatalf("small message delivered at %v; packetization not interleaving", smallAt)
	}
}

// TestReorderBufferPreservesFIFO: random message sizes between one pair must
// still deliver in send order despite packet-level overtaking.
func TestReorderBufferPreservesFIFO(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 30 {
			sizes = sizes[:30]
		}
		cfg := testConfig()
		cfg.SendOverhead = 0
		cfg.PacketBytes = 512
		e := sim.New()
		n := New(e, cfg)
		var got []int
		n.SetDeliver(7, func(env *Envelope) { got = append(got, env.Payload.(int)) })
		e.Spawn("sender", func(p *sim.Proc) {
			for i, s := range sizes {
				n.Send(p, &Envelope{Src: 0, Dst: 7, Size: 1 + int(s), Payload: i})
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		if len(got) != len(sizes) {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestReorderAcrossInterleavedPairs: two senders to one destination keep
// their own FIFO order; interleaving across pairs is unconstrained.
func TestReorderAcrossInterleavedPairs(t *testing.T) {
	cfg := testConfig()
	cfg.SendOverhead = 0
	cfg.PacketBytes = 1024
	e := sim.New()
	n := New(e, cfg)
	perSrc := map[NodeID][]int{}
	n.SetDeliver(5, func(env *Envelope) {
		perSrc[env.Src] = append(perSrc[env.Src], env.Payload.(int))
	})
	for _, src := range []NodeID{0, 2} {
		src := src
		e.Spawn(fmt.Sprintf("s%d", src), func(p *sim.Proc) {
			for i := 0; i < 10; i++ {
				n.Send(p, &Envelope{Src: src, Dst: 5, Size: 100 + (i%3)*5000, Payload: i})
			}
		})
	}
	runDrained(t, e, n)
	for src, vals := range perSrc {
		for i, v := range vals {
			if v != i {
				t.Fatalf("src %d order %v", src, vals)
			}
		}
	}
}

// TestTransitHookChargesIntermediateNodes: forwarding through a node invokes
// the hook with the right node and byte count; endpoints are never charged.
func TestTransitHookChargesIntermediateNodes(t *testing.T) {
	cfg := testConfig()
	cfg.SendOverhead = 0
	e := sim.New()
	n := New(e, cfg)
	charged := map[NodeID]int{}
	n.TransitHook = func(id NodeID, bytes int) { charged[id] += bytes }
	n.SetDeliver(3, func(env *Envelope) {})
	e.Spawn("s", func(p *sim.Proc) {
		n.Send(p, &Envelope{Src: 0, Dst: 3, Size: 10_000}) // route 0→1→2→3
	})
	runDrained(t, e, n)
	if charged[1] != 10_000 || charged[2] != 10_000 {
		t.Fatalf("intermediates charged %v", charged)
	}
	if charged[0] != 0 || charged[3] != 0 {
		t.Fatalf("endpoints wrongly charged: %v", charged)
	}
}

func TestHostToHostPathEmpty(t *testing.T) {
	e := sim.New()
	n := New(e, testConfig())
	if p := n.Path(8, 8); len(p) != 0 {
		t.Fatalf("host->host path = %v", p)
	}
}

// TestPacketsShareOneRouteStep: a 40-packet message crosses its whole route
// — mesh links and host links alike — and is delivered once.
func TestPacketsShareOneRouteStep(t *testing.T) {
	cfg := testConfig()
	cfg.SendOverhead = 0
	cfg.PacketBytes = 512
	e := sim.New()
	n := New(e, cfg)
	for _, tc := range []struct {
		src, dst NodeID
		hops     int
	}{
		{0, 7, 4},
		{7, cfg.Host(), 5}, // 7→6→5→4→0, then the host link
		{cfg.Host(), 6, 4},
	} {
		if hops := len(n.Path(tc.src, tc.dst)); hops != tc.hops {
			t.Fatalf("%d→%d: path has %d hops, want %d", tc.src, tc.dst, hops, tc.hops)
		}
		delivered := 0
		n.SetDeliver(tc.dst, func(*Envelope) { delivered++ })
		n.Send(nil, &Envelope{Src: tc.src, Dst: tc.dst, Size: 40 * cfg.PacketBytes})
		runDrained(t, e, n)
		if delivered != 1 {
			t.Errorf("%d→%d, 40 packets over %d hops: delivered %d times, want once", tc.src, tc.dst, tc.hops, delivered)
		}
	}
}
