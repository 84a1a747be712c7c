package fabric

import (
	"repro/internal/obs"
	"repro/internal/sim"
)

// courierNet is the fabric's original transport, retired from the build by
// the event-driven flights and kept in this test file as the differential-
// testing reference: every remote message is a simulated process (a courier)
// that does Acquire / Sleep / Release on a sim.Resource per packet per hop.
// TestFabricScheduleDifferential and FuzzFabricSchedule drive it and Network
// with identical traffic and require identical virtual schedules. It must not
// change independently of the push-for-push contract documented on
// flight.advance.
//
// It is also the record of why it was replaced: a goroutine and two channel
// handoffs per packet made the Go scheduler half of a 256-node coordinated
// round's host time (99,851 processes for 99,074 messages).
type courierNet struct {
	eng     *sim.Engine
	cfg     Config
	paths   *Network // route resolution only; never sent on
	links   map[[2]NodeID]*courierLink
	deliver []Handler
	seq     uint64

	sendSeq map[[2]NodeID]uint64
	nextRcv map[[2]NodeID]uint64
	held    map[[2]NodeID]map[uint64]arrival

	FaultHook   func(env *Envelope) (delay sim.Duration, drop bool)
	TransitHook func(node NodeID, bytes int)
	Obs         *obs.Observer
}

type courierLink struct {
	res   *sim.Resource
	lat   sim.Duration
	bw    float64
	bytes int64
	msgs  int64
}

func newCourierNet(eng *sim.Engine, cfg Config) *courierNet {
	paths := New(eng, cfg)
	n := &courierNet{
		eng:     eng,
		cfg:     cfg,
		paths:   paths,
		links:   make(map[[2]NodeID]*courierLink),
		deliver: make([]Handler, len(paths.deliver)),
		sendSeq: make(map[[2]NodeID]uint64),
		nextRcv: make(map[[2]NodeID]uint64),
		held:    make(map[[2]NodeID]map[uint64]arrival),
	}
	for from, links := range paths.out {
		for _, l := range links {
			n.links[[2]NodeID{NodeID(from), l.to}] = &courierLink{res: sim.NewResource(eng, 1), lat: l.lat, bw: l.bw}
		}
	}
	return n
}

func (n *courierNet) SetDeliver(id NodeID, h Handler) { n.deliver[id] = h }

func (n *courierNet) Send(sender *sim.Proc, env *Envelope) {
	n.seq++
	env.Seq = n.seq
	env.SentAt = n.eng.Now()
	n.Obs.Add(int(env.Src), "fabric.msgs_sent", 1)
	n.Obs.Add(int(env.Src), "fabric.bytes_sent", int64(env.Size))
	if sender != nil && n.cfg.SendOverhead > 0 {
		sender.Sleep(n.cfg.SendOverhead)
	}
	if env.Src == env.Dst {
		n.eng.After(n.cfg.LocalLatency, func() { n.handoff(env) })
		return
	}
	pair := [2]NodeID{env.Src, env.Dst}
	n.sendSeq[pair]++
	pairSeq := n.sendSeq[pair]
	var faultDelay sim.Duration
	var dropped bool
	if n.FaultHook != nil {
		faultDelay, dropped = n.FaultHook(env)
	}
	path := n.paths.Path(env.Src, env.Dst)
	n.eng.Spawn("courier", func(p *sim.Proc) {
		for _, hop := range path {
			l := n.links[hop]
			remaining := env.Size
			measure := n.Obs.Enabled() && n.paths.isHost(hop[1])
			var waited sim.Duration
			for {
				chunk := remaining
				if n.cfg.PacketBytes > 0 && chunk > n.cfg.PacketBytes {
					chunk = n.cfg.PacketBytes
				}
				t0 := p.Now()
				l.res.Acquire(p)
				waited += p.Now().Sub(t0)
				p.Sleep(l.lat + sim.BytesAt(chunk, l.bw))
				l.res.Release()
				remaining -= chunk
				if remaining <= 0 {
					break
				}
			}
			if measure {
				n.Obs.ObserveDur(int(env.Src), "storage.hostlink_queue_wait", waited)
			}
			l.bytes += int64(env.Size)
			l.msgs++
			if hop[1] != env.Dst && n.TransitHook != nil {
				n.TransitHook(hop[1], env.Size)
			}
		}
		if faultDelay > 0 {
			p.Sleep(faultDelay)
		}
		n.arrive(pair, pairSeq, env, dropped)
	})
}

func (n *courierNet) arrive(pair [2]NodeID, pairSeq uint64, env *Envelope, dropped bool) {
	expected := n.nextRcv[pair] + 1
	if pairSeq != expected {
		hm := n.held[pair]
		if hm == nil {
			hm = make(map[uint64]arrival)
			n.held[pair] = hm
		}
		hm[pairSeq] = arrival{env: env, dropped: dropped}
		return
	}
	if !dropped {
		n.handoff(env)
	}
	n.nextRcv[pair] = expected
	for {
		next, ok := n.held[pair][n.nextRcv[pair]+1]
		if !ok {
			return
		}
		delete(n.held[pair], n.nextRcv[pair]+1)
		n.nextRcv[pair]++
		if !next.dropped {
			n.handoff(next.env)
		}
	}
}

func (n *courierNet) handoff(env *Envelope) {
	if h := n.deliver[env.Dst]; h != nil {
		h(env)
	}
}

func (n *courierNet) linkStats() map[[2]NodeID]LinkStats {
	out := make(map[[2]NodeID]LinkStats, len(n.links))
	for key, l := range n.links {
		out[key] = LinkStats{From: key[0], To: key[1], Bytes: l.bytes, Msgs: l.msgs, Busy: l.res.BusyTime()}
	}
	return out
}
