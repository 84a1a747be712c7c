package fabric

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// schedule_test.go — differential testing of the event-driven fabric against
// courierNet, the retired process-per-message transport. Both are driven
// with identical traffic and must produce identical virtual schedules: the
// engine orders events by (at, seq), so the fabric may only keep its results
// if it schedules exactly one event where the courier scheduled one, in the
// same order. Everything a layer above can observe is compared — delivery
// and transit traces, per-link accounting, observer metrics, and the
// engine's own push/pop counters.

// transport is what the harness needs of either implementation.
type transport interface {
	Send(*sim.Proc, *Envelope)
	SetDeliver(NodeID, Handler)
}

// schedSend is one scripted message.
type schedSend struct {
	gap      sim.Duration // virtual time since the previous scripted send
	src, dst NodeID
	size     int
	viaProc  bool // sent by src's sender process (pays SendOverhead), else from engine context
	reply    bool // the destination's handler answers with a small message
}

// fabricSchedule is one generated scenario: a machine shape plus traffic.
type fabricSchedule struct {
	cfg     Config
	obs     bool   // arm an observer
	transit bool   // install a TransitHook
	faults  uint64 // fault-verdict seed; 0 leaves FaultHook nil
	sends   []schedSend
}

// scheduleShapes are the machines the harness draws from: the paper's 4x2
// mesh with one and two hosts, a square mesh with three hosts, a long thin
// one with two, and a tall one whose only host attaches mid-mesh.
var scheduleShapes = []func(c *Config){
	func(c *Config) {},
	func(c *Config) { c.Hosts = 2 },
	func(c *Config) { c.MeshW, c.MeshH, c.Hosts = 4, 4, 3 },
	func(c *Config) { c.MeshW, c.MeshH, c.Hosts = 8, 2, 2 },
	func(c *Config) { c.MeshW, c.MeshH, c.HostAttach = 2, 4, 5 },
}

var schedulePackets = []int{0, 64, 512, 4096}

const scheduleSendBytes = 5 // script bytes per scripted send

// decodeSchedule turns fuzzer-controlled bytes into a scenario. Every value
// is reduced into its valid range, so any input is a legal schedule.
func decodeSchedule(shape, pkt, flags uint8, faults uint64, script []byte) fabricSchedule {
	cfg := testConfig()
	scheduleShapes[int(shape)%len(scheduleShapes)](&cfg)
	cfg.PacketBytes = schedulePackets[int(pkt)%len(schedulePackets)]
	if flags&8 != 0 {
		cfg.SendOverhead = 0
	}
	sc := fabricSchedule{cfg: cfg, obs: flags&1 != 0, transit: flags&4 != 0}
	if flags&2 != 0 {
		sc.faults = faults | 1
	}
	var ends []NodeID
	for i := 0; i < cfg.Nodes(); i++ {
		ends = append(ends, NodeID(i))
	}
	for i := 0; i < cfg.NumHosts(); i++ {
		ends = append(ends, cfg.HostID(i))
	}
	// Sizes straddle the packet boundary; p stands in when packetization is off.
	p := cfg.PacketBytes
	if p == 0 {
		p = 512
	}
	sizes := []int{0, 1, p - 1, p, p + 1, 2 * p, 3*p + 17, 40*p + 3}
	for ; len(script) >= scheduleSendBytes && len(sc.sends) < 64; script = script[scheduleSendBytes:] {
		sc.sends = append(sc.sends, schedSend{
			gap:     sim.Duration(script[3]%16) * 20 * sim.Microsecond,
			src:     ends[int(script[0])%len(ends)],
			dst:     ends[int(script[1])%len(ends)],
			size:    sizes[int(script[2])%len(sizes)],
			viaProc: script[4]&1 != 0,
			reply:   script[4]&2 != 0,
		})
	}
	return sc
}

type deliveryRec struct {
	At       sim.Time
	Seq      uint64
	Src, Dst NodeID
	Msg      int // index into sends; -1-index for a reply
}

type transitRec struct {
	At    sim.Time
	Node  NodeID
	Bytes int
}

// linkStats is Network's counterpart: accumulated traffic of every directed
// link, host links included.
func (n *Network) linkStats() map[[2]NodeID]LinkStats {
	out := make(map[[2]NodeID]LinkStats)
	for from, links := range n.out {
		for i := range links {
			out[[2]NodeID{NodeID(from), links[i].to}] = links[i].stats(NodeID(from))
		}
	}
	return out
}

// inFlight returns the number of messages sent and not yet delivered or
// dropped: on links, in a fault delay, or held for re-sequencing. It is zero
// once a run has drained; a stuck message owns no process, so this count —
// not a DeadlockError — is where one would show.
func (n *Network) inFlight() int64 { return n.totalMsgs - n.arrived }

// debugHeld reports how many envelopes sit in reorder buffers per pair.
func (n *Network) debugHeld() map[[2]NodeID]int {
	out := map[[2]NodeID]int{}
	for key := range n.held {
		out[[2]NodeID{key.src, key.dst}]++
	}
	return out
}

// scheduleResult is everything observable about one run.
type scheduleResult struct {
	Deliveries []deliveryRec
	Transits   []transitRec
	Links      map[[2]NodeID]LinkStats
	Metrics    []obs.Metric
	End        sim.Time

	Pushes, Pops  uint64
	MaxQueueDepth int
	procs         int // differs by design; checked separately
	senders       int
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// runSchedule plays sc on a fresh engine through the event-driven Network or
// the courier reference.
func runSchedule(t testing.TB, sc fabricSchedule, courier bool) scheduleResult {
	t.Helper()
	eng := sim.New()
	defer eng.Shutdown()
	var o *obs.Observer
	if sc.obs {
		o = obs.New()
		o.Bind(eng)
	}
	var res scheduleResult
	var fault func(*Envelope) (sim.Duration, bool)
	if sc.faults != 0 {
		// Keyed on the global send sequence, so a divergence in send order
		// shows up as a divergence in verdicts too.
		fault = func(env *Envelope) (sim.Duration, bool) {
			h := mix64(sc.faults ^ env.Seq)
			var delay sim.Duration
			if h&0x10 != 0 {
				delay = sim.Duration(h>>8%3000) * sim.Microsecond
			}
			return delay, h%8 == 0
		}
	}
	var transit func(NodeID, int)
	if sc.transit {
		transit = func(node NodeID, bytes int) {
			res.Transits = append(res.Transits, transitRec{eng.Now(), node, bytes})
		}
	}
	var net transport
	var links func() map[[2]NodeID]LinkStats
	var real *Network
	if courier {
		c := newCourierNet(eng, sc.cfg)
		c.Obs, c.FaultHook, c.TransitHook = o, fault, transit
		net, links = c, c.linkStats
	} else {
		real = New(eng, sc.cfg)
		real.Obs, real.FaultHook, real.TransitHook = o, fault, transit
		net, links = real, real.linkStats
	}
	deliver := func(env *Envelope) {
		msg := env.Payload.(int)
		res.Deliveries = append(res.Deliveries, deliveryRec{eng.Now(), env.Seq, env.Src, env.Dst, msg})
		if msg >= 0 && sc.sends[msg].reply {
			// A handler that sends: re-enters the fabric from delivery context.
			net.Send(nil, &Envelope{Src: env.Dst, Dst: env.Src, Size: 24, Payload: -1 - msg})
		}
	}
	for i := 0; i < sc.cfg.Nodes(); i++ {
		net.SetDeliver(NodeID(i), deliver)
	}
	for i := 0; i < sc.cfg.NumHosts(); i++ {
		net.SetDeliver(sc.cfg.HostID(i), deliver)
	}

	// Each scripted send is due at the running sum of the gaps. Engine-context
	// sends fire exactly then; a source's sender process works through its own
	// sends in order, sleeping up to each one's due time.
	type due struct {
		at  sim.Time
		msg int
	}
	bySrc := map[NodeID][]due{}
	var srcs []NodeID
	var at sim.Time
	for i, s := range sc.sends {
		at = at.Add(s.gap)
		if !s.viaProc {
			env := &Envelope{Src: s.src, Dst: s.dst, Size: s.size, Payload: i}
			eng.At(at, func() { net.Send(nil, env) })
			continue
		}
		if bySrc[s.src] == nil {
			srcs = append(srcs, s.src)
		}
		bySrc[s.src] = append(bySrc[s.src], due{at, i})
	}
	for _, src := range srcs {
		mine := bySrc[src]
		eng.Spawn(fmt.Sprintf("sender%d", src), func(p *sim.Proc) {
			for _, d := range mine {
				if wait := d.at.Sub(p.Now()); wait > 0 {
					p.Sleep(wait)
				}
				s := sc.sends[d.msg]
				net.Send(p, &Envelope{Src: s.src, Dst: s.dst, Size: s.size, Payload: d.msg})
			}
		})
	}
	if real != nil {
		runDrained(t, eng, real)
	} else if err := eng.Run(); err != nil {
		t.Fatalf("courier: Run: %v", err)
	}
	st := eng.Stats()
	res.Links, res.Metrics, res.End = links(), o.Snapshot(), eng.Now()
	res.Pushes, res.Pops, res.MaxQueueDepth = st.Pushes, st.Pops, st.MaxQueueDepth
	res.procs, res.senders = st.ProcsSpawned, len(srcs)
	return res
}

// diffSchedule runs sc through both transports and fails on any observable
// difference. It returns the event-driven run's result.
func diffSchedule(t testing.TB, sc fabricSchedule) scheduleResult {
	t.Helper()
	got, want := runSchedule(t, sc, false), runSchedule(t, sc, true)
	if got.procs != got.senders {
		t.Fatalf("event-driven fabric spawned %d processes for %d senders", got.procs, got.senders)
	}
	got.procs, want.procs = 0, 0
	if reflect.DeepEqual(got, want) {
		return got
	}
	for i := 0; i < len(got.Deliveries) && i < len(want.Deliveries); i++ {
		if got.Deliveries[i] != want.Deliveries[i] {
			t.Errorf("delivery %d: event-driven %+v, courier %+v", i, got.Deliveries[i], want.Deliveries[i])
			break
		}
	}
	for key, w := range want.Links {
		if g := got.Links[key]; g != w {
			t.Errorf("link %v: event-driven %+v, courier %+v", key, g, w)
		}
	}
	t.Fatalf("schedules diverge (config %+v):\nevent-driven: %d deliveries, %d transits, end %v, pushes %d, pops %d, depth %d\ncourier:      %d deliveries, %d transits, end %v, pushes %d, pops %d, depth %d",
		sc.cfg,
		len(got.Deliveries), len(got.Transits), got.End, got.Pushes, got.Pops, got.MaxQueueDepth,
		len(want.Deliveries), len(want.Transits), want.End, want.Pushes, want.Pops, want.MaxQueueDepth)
	return got
}

// TestFabricScheduleDifferential cross-checks the two transports over many
// seeded scenarios and requires that, between them, the scenarios reached
// the cases the contract is about: contended links, drops, overtaking that
// the reorder buffer had to undo, and local sends.
func TestFabricScheduleDifferential(t *testing.T) {
	var sawWait, sawDrop, sawLocal, sawTransit bool
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, scheduleSendBytes*(1+rng.Intn(64)))
		rng.Read(script)
		sc := decodeSchedule(uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)), rng.Uint64(), script)
		res := diffSchedule(t, sc)

		sent := len(sc.sends)
		for _, d := range res.Deliveries {
			if d.Msg < 0 {
				sent++
			}
			sawLocal = sawLocal || d.Src == d.Dst
		}
		sawDrop = sawDrop || len(res.Deliveries) < sent
		sawTransit = sawTransit || len(res.Transits) > 0
		for _, m := range res.Metrics {
			if m.Key.Name == "storage.hostlink_queue_wait" && m.Hist.Sum > 0 {
				sawWait = true
			}
		}
	}
	if !sawWait || !sawDrop || !sawLocal || !sawTransit {
		t.Fatalf("scenarios too tame: queue wait %v, drops %v, local sends %v, transits %v",
			sawWait, sawDrop, sawLocal, sawTransit)
	}
}

// TestFabricScheduleOvertaking pins the case the reorder buffer exists for on
// both transports: a fault-delayed message is overtaken by its successors,
// which are held and then released in send order.
func TestFabricScheduleOvertaking(t *testing.T) {
	cfg := testConfig()
	cfg.PacketBytes = 512
	sc := fabricSchedule{cfg: cfg, faults: 3, obs: true, transit: true}
	for i := 0; i < 40; i++ {
		sc.sends = append(sc.sends, schedSend{src: 0, dst: 7, size: 100 + (i%5)*700, viaProc: true})
	}
	res := diffSchedule(t, sc)
	released := false // two deliveries at one instant: the second came out of the buffer
	for i, d := range res.Deliveries {
		if i > 0 && d.Msg < res.Deliveries[i-1].Msg {
			t.Fatalf("pair delivery out of send order: %d after %d", d.Msg, res.Deliveries[i-1].Msg)
		}
		released = released || i > 0 && d.At == res.Deliveries[i-1].At
	}
	if !released {
		t.Fatal("nothing was overtaken; the reorder buffer is not exercised")
	}
	if len(res.Deliveries) == len(sc.sends) {
		t.Fatal("fault seed drops nothing; the dropped-arrival path is not exercised")
	}
}

// FuzzFabricSchedule lets the fuzzer choose the machine shape, packet size,
// hooks and the send script byte by byte (source, destination, size class,
// gap, sender kind per send) and requires the two transports to agree.
func FuzzFabricSchedule(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint64(0), []byte{0, 1, 2, 0, 1})
	f.Add(uint8(1), uint8(2), uint8(7), uint64(42), []byte{0, 8, 7, 0, 1, 1, 8, 7, 0, 0, 2, 9, 3, 1, 3, 8, 0, 6, 0, 2})
	f.Add(uint8(2), uint8(1), uint8(15), uint64(7), []byte{3, 3, 1, 0, 0, 5, 12, 7, 2, 1, 16, 4, 6, 0, 3, 0, 17, 5, 0, 1})
	f.Add(uint8(3), uint8(3), uint8(6), uint64(99), []byte{0, 7, 7, 0, 1, 7, 0, 7, 0, 1, 1, 6, 4, 15, 2, 8, 2, 6, 0, 0})
	f.Add(uint8(4), uint8(1), uint8(3), uint64(1), []byte{5, 8, 7, 0, 0, 4, 8, 7, 0, 0, 6, 8, 7, 0, 0, 8, 2, 5, 1, 3})
	f.Fuzz(func(t *testing.T, shape, pkt, flags uint8, faults uint64, script []byte) {
		diffSchedule(t, decodeSchedule(shape, pkt, flags, faults, script))
	})
}
