package fabric

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/topo"
)

func testConfig() Config {
	return Config{
		MeshW: 4, MeshH: 2,
		LinkBandwidth: 1.5e6, LinkLatency: 50 * sim.Microsecond,
		HostBandwidth: 1e6, HostLatency: 200 * sim.Microsecond,
		HostAttach:   0,
		SendOverhead: 25 * sim.Microsecond,
		LocalLatency: 5 * sim.Microsecond,
	}
}

// runDrained runs the simulation to completion and requires the fabric to
// be empty afterwards. A message stuck on a link or in a reorder buffer owns
// no process, so Run alone would not report it.
func runDrained(t testing.TB, e *sim.Engine, n *Network) {
	t.Helper()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if in := n.InFlight(); in != 0 {
		t.Fatalf("%d messages still in flight after the run drained", in)
	}
	if held := n.debugHeld(); len(held) != 0 {
		t.Fatalf("reorder buffers not released after the run drained: %v", held)
	}
}

func TestPathXYRouting(t *testing.T) {
	e := sim.New()
	n := New(e, testConfig())
	// Node layout (4x2): 0 1 2 3 / 4 5 6 7.
	cases := []struct {
		src, dst NodeID
		hops     int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 3, 3},
		{0, 7, 4}, // 3 in x, 1 in y
		{3, 4, 4},
		{0, 8, 1}, // host, attached at 0
		{7, 8, 5}, // mesh to attach point then host link
		{8, 7, 5}, // host to far corner
		{5, 5, 0},
	}
	for _, c := range cases {
		got := n.Path(c.src, c.dst)
		if len(got) != c.hops {
			t.Errorf("Path(%d,%d) = %d hops %v, want %d", c.src, c.dst, len(got), got, c.hops)
		}
		// Path continuity.
		cur := c.src
		for _, h := range got {
			if h[0] != cur {
				t.Errorf("Path(%d,%d) discontinuous at %v", c.src, c.dst, h)
			}
			cur = h[1]
		}
		if len(got) > 0 && cur != c.dst {
			t.Errorf("Path(%d,%d) ends at %d", c.src, c.dst, cur)
		}
	}
}

func TestPathPropertyContinuityAndLength(t *testing.T) {
	e := sim.New()
	n := New(e, testConfig())
	f := func(a, b uint8) bool {
		src := NodeID(int(a) % 9)
		dst := NodeID(int(b) % 9)
		path := n.Path(src, dst)
		cur := src
		for _, h := range path {
			if h[0] != cur {
				return false
			}
			cur = h[1]
		}
		if src == dst {
			return len(path) == 0
		}
		return cur == dst && len(path) <= 4+1+1 // mesh diameter + host hop
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPointToPointLatency(t *testing.T) {
	cfg := testConfig()
	cfg.SendOverhead = 0
	e := sim.New()
	n := New(e, cfg)
	var arrived sim.Time
	n.SetDeliver(1, func(env *Envelope) { arrived = e.Now() })
	e.Spawn("sender", func(p *sim.Proc) {
		n.Send(p, &Envelope{Src: 0, Dst: 1, Size: 1500})
	})
	runDrained(t, e, n)
	want := sim.Time(50*sim.Microsecond + sim.BytesAt(1500, 1.5e6))
	if arrived != want {
		t.Fatalf("arrived at %v, want %v", arrived, want)
	}
}

func TestFIFOPerPair(t *testing.T) {
	e := sim.New()
	n := New(e, testConfig())
	var got []int
	n.SetDeliver(7, func(env *Envelope) { got = append(got, env.Payload.(int)) })
	e.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			// Varying sizes try to make later messages "faster" — FIFO must hold.
			size := 100 + (19-i)*500
			n.Send(p, &Envelope{Src: 0, Dst: 7, Size: size, Payload: i})
		}
	})
	runDrained(t, e, n)
	if len(got) != 20 {
		t.Fatalf("delivered %d, want 20", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("delivery order %v not FIFO", got)
		}
	}
}

func TestFIFOAcrossPortsSameSource(t *testing.T) {
	e := sim.New()
	n := New(e, testConfig())
	var got []string
	n.SetDeliver(3, func(env *Envelope) {
		got = append(got, fmt.Sprintf("%d:%v", env.Port, env.Payload))
	})
	e.Spawn("sender", func(p *sim.Proc) {
		n.Send(p, &Envelope{Src: 0, Dst: 3, Port: 0, Size: 4000, Payload: "app"})
		n.Send(p, &Envelope{Src: 0, Dst: 3, Port: 1, Size: 10, Payload: "marker"})
	})
	runDrained(t, e, n)
	if len(got) != 2 || got[0] != "0:app" || got[1] != "1:marker" {
		t.Fatalf("cross-port order %v: marker overtook app message", got)
	}
}

func TestLocalDelivery(t *testing.T) {
	e := sim.New()
	n := New(e, testConfig())
	var at sim.Time
	n.SetDeliver(2, func(env *Envelope) { at = e.Now() })
	e.At(0, func() {
		n.Send(nil, &Envelope{Src: 2, Dst: 2, Size: 100})
	})
	runDrained(t, e, n)
	if at != sim.Time(5*sim.Microsecond) {
		t.Fatalf("local delivery at %v, want 5µs", at)
	}
}

func TestLinkContentionSerializes(t *testing.T) {
	cfg := testConfig()
	cfg.SendOverhead = 0
	e := sim.New()
	n := New(e, cfg)
	count := 0
	var last sim.Time
	n.SetDeliver(1, func(env *Envelope) { count++; last = e.Now() })
	// Two senders on node 0 push 1.5MB each over the same 1.5MB/s link.
	for i := 0; i < 2; i++ {
		e.Spawn(fmt.Sprintf("s%d", i), func(p *sim.Proc) {
			n.Send(p, &Envelope{Src: 0, Dst: 1, Size: 1_500_000})
		})
	}
	runDrained(t, e, n)
	if count != 2 {
		t.Fatalf("delivered %d", count)
	}
	want := sim.Time(2*sim.Second + 2*50*sim.Microsecond)
	if last != want {
		t.Fatalf("second arrival at %v, want %v (serialized)", last, want)
	}
}

func TestHostLinkIsBottleneck(t *testing.T) {
	cfg := testConfig()
	cfg.SendOverhead = 0
	e := sim.New()
	n := New(e, cfg)
	host := cfg.Host()
	var arrivals []sim.Time
	n.SetDeliver(host, func(env *Envelope) { arrivals = append(arrivals, e.Now()) })
	// All 8 nodes send 1MB to the host at t=0: the 1MB/s host link serializes them.
	for i := 0; i < 8; i++ {
		src := NodeID(i)
		e.Spawn(fmt.Sprintf("n%d", i), func(p *sim.Proc) {
			n.Send(p, &Envelope{Src: src, Dst: host, Size: 1_000_000})
		})
	}
	runDrained(t, e, n)
	if len(arrivals) != 8 {
		t.Fatalf("delivered %d", len(arrivals))
	}
	lastSec := arrivals[len(arrivals)-1].Seconds()
	if lastSec < 8.0 || lastSec > 8.7 {
		t.Fatalf("last arrival %.2fs, want ≈8s (host-link serialization)", lastSec)
	}
	hs := n.HostLinkStats()
	if hs.Bytes != 8_000_000 {
		t.Fatalf("host link bytes = %d", hs.Bytes)
	}
	if hs.Busy < 8*sim.Second {
		t.Fatalf("host link busy = %v, want >= 8s", hs.Busy)
	}
}

func TestTrafficAccounting(t *testing.T) {
	e := sim.New()
	n := New(e, testConfig())
	n.SetDeliver(1, func(env *Envelope) {})
	e.At(0, func() {
		n.Send(nil, &Envelope{Src: 0, Dst: 1, Size: 100})
		n.Send(nil, &Envelope{Src: 0, Dst: 1, Size: 200})
	})
	runDrained(t, e, n)
	msgs, bytes := n.TotalTraffic()
	if msgs != 2 || bytes != 300 {
		t.Fatalf("traffic = %d msgs %d bytes", msgs, bytes)
	}
}

// TestInvalidDestinationPanics: Send and Path reject destinations — and
// sources — that are not endpoints (out of range, or a routing-only switch)
// with the fabric's own message, before anything is counted or routed.
func TestInvalidDestinationPanics(t *testing.T) {
	cfg := testConfig()
	cfg.Topo = topo.FatTree{Arity: 2, Levels: 2} // nodes 0..3, switches 4..6, host 7
	n := New(sim.New(), cfg)
	for _, tc := range []struct {
		src, dst NodeID
		want     string
	}{
		{0, 99, "fabric: send to invalid node 99"},
		{0, -1, "fabric: send to invalid node -1"},
		{0, 5, "fabric: send to invalid node 5"},
		{99, 0, "fabric: send from invalid node 99"},
		{-1, 0, "fabric: send from invalid node -1"},
		{4, 0, "fabric: send from invalid node 4"},
	} {
		for _, op := range []string{"send", "path"} {
			want := strings.Replace(tc.want, "send", op, 1)
			func() {
				defer func() {
					if got := recover(); got != want {
						t.Errorf("%s %d→%d: panic %v, want %q", op, tc.src, tc.dst, got, want)
					}
				}()
				if op == "path" {
					n.Path(tc.src, tc.dst)
					return
				}
				n.Send(nil, &Envelope{Src: tc.src, Dst: tc.dst, Size: 1})
			}()
		}
	}
	if msgs, _ := n.TotalTraffic(); msgs != 0 || n.InFlight() != 0 {
		t.Fatalf("rejected sends were counted: %d msgs, %d in flight", msgs, n.InFlight())
	}
}
