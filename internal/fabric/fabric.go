// Package fabric simulates the interconnect of a transputer-style
// multicomputer: compute nodes joined by a routed topology (the default is
// the Parsytec's 2-D mesh with XY dimension-ordered store-and-forward
// routing; package topo supplies 3-D meshes, tori and fat trees), plus one or
// more host links attaching mesh nodes to host endpoints (the stable-storage
// servers' machines).
//
// Every directed link is a FIFO server with a latency and a bandwidth, so
// concurrent traffic queues hop by hop; this is what produces the network
// contention effects that the checkpointing study measures. Delivery order
// between a fixed (src, dst) pair is FIFO because all such messages follow
// the same deterministic path, which the reliable-FIFO message layer above
// relies on.
//
// The fabric is event-driven: a message in flight is a flight record stepped
// by plain engine events — one per packet per hop, plus one whenever a
// release hands a contended link to the head of its wait queue — and owns no
// simulated process. Delivery handlers therefore run in engine context.
//
// Routing is by stepping, not by table: a flight holds the one link it is
// crossing and, when the hop completes, asks the topology for the next vertex
// and picks that link out of the few leaving where it stands. The network's
// state is therefore O(vertices), plus a pointer-free row of sequence
// counters per source that has sent; an all-pairs flood leaves nothing per
// pair for the garbage collector to trace.
package fabric

import (
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
)

// NodeID identifies an endpoint or routing vertex: 0..Nodes()-1 are compute
// nodes, Nodes()..Nodes()+Routers()-1 are routing-only switches (indirect
// topologies), and HostID(i) are the host machines behind the host links.
type NodeID int

// Config describes the machine's interconnect.
type Config struct {
	MeshW, MeshH int // legacy 2-D mesh dimensions, used when Topo is nil

	// Topo, when non-nil, replaces the MeshW×MeshH mesh with an arbitrary
	// routed topology (package topo). The default machine is byte-identical
	// whether expressed as a nil Topo or an explicit topo.Mesh2D{W: 4, H: 2}.
	Topo topo.Topology

	LinkBandwidth float64      // bytes/s per topology link (scaled by the link's Cap)
	LinkLatency   sim.Duration // per-hop wire latency

	HostBandwidth float64      // bytes/s of each host link
	HostLatency   sim.Duration // host link latency
	HostAttach    NodeID       // compute node host 0's link attaches to

	// Hosts is the number of host endpoints — one per storage server when
	// the storage layer is sharded; 0 or 1 means the single legacy host.
	// Host 0 attaches at HostAttach, host i > 0 at the evenly spread compute
	// node i*Nodes()/Hosts.
	Hosts int

	SendOverhead sim.Duration // software overhead charged to the sending process
	LocalLatency sim.Duration // latency of a node-local (src == dst) delivery

	// PacketBytes is the link scheduling granularity: a message holds a link
	// for at most this many bytes before yielding to competing traffic, so
	// large checkpoint transfers do not monopolize links against small
	// application messages. Zero disables packetization.
	PacketBytes int

	// TransitCPUPerMB is the CPU time the software router steals from an
	// intermediate node per megabyte forwarded (Parix virtual links were
	// partly CPU-driven). The node layer charges it to computations running
	// concurrently with the forwarding.
	TransitCPUPerMB sim.Duration
}

// topology resolves the effective topology: explicit, or the legacy mesh.
func (c Config) topology() topo.Topology {
	if c.Topo != nil {
		return c.Topo
	}
	return topo.Mesh2D{W: c.MeshW, H: c.MeshH}
}

// Nodes returns the number of compute nodes.
func (c Config) Nodes() int {
	if c.Topo != nil {
		return c.Topo.Nodes()
	}
	return c.MeshW * c.MeshH
}

// Routers returns the number of routing-only vertices of the topology.
func (c Config) Routers() int {
	if c.Topo != nil {
		return c.Topo.Routers()
	}
	return 0
}

// NumHosts returns the number of host endpoints (at least 1).
func (c Config) NumHosts() int {
	if c.Hosts > 1 {
		return c.Hosts
	}
	return 1
}

// HostID returns the NodeID of host endpoint i.
func (c Config) HostID(i int) NodeID { return NodeID(c.Nodes() + c.Routers() + i) }

// Host returns the NodeID of the first host endpoint. On the legacy
// single-host machine this is NodeID(Nodes()), as before.
func (c Config) Host() NodeID { return c.HostID(0) }

// AttachOf returns the compute node host i's link attaches to.
func (c Config) AttachOf(i int) NodeID {
	if i == 0 {
		return c.HostAttach
	}
	return NodeID(i * c.Nodes() / c.NumHosts())
}

// Validate reports whether the configuration describes a buildable machine;
// New panics on exactly the conditions Validate rejects, so CLIs can check
// user-supplied shapes up front and fail with a usage error instead.
func (c Config) Validate() error {
	if c.Topo == nil && (c.MeshW < 1 || c.MeshH < 1) {
		return errors.New("mesh dimensions must be >= 1")
	}
	if c.Hosts > c.Nodes() {
		return fmt.Errorf("%d hosts exceed the topology's %d compute nodes", c.Hosts, c.Nodes())
	}
	for i := 0; i < c.NumHosts(); i++ {
		if a := int(c.AttachOf(i)); a < 0 || a >= c.Nodes() {
			return fmt.Errorf("host %d attach point %d outside the %d compute nodes", i, a, c.Nodes())
		}
	}
	return nil
}

// Envelope is one message on the wire. Payload is opaque to the fabric; Size
// is the number of bytes that occupy link bandwidth.
type Envelope struct {
	Src, Dst NodeID
	Port     int // endpoint-local demultiplexing port
	Inc      int // sender incarnation number (used by the node layer)
	Size     int // bytes on the wire (payload + headers)
	Payload  any
	SentAt   sim.Time
	Seq      uint64 // global send sequence, for tracing
}

// Handler receives a delivered envelope. It runs in engine context (from the
// event that ends the message's last packet) and must not block; a panic in
// a handler propagates out of Engine.Run like any other event callback's.
type Handler func(*Envelope)

// link is one directed channel: a capacity-1 FIFO server. The flight holding
// it has one packet on the wire; flights that found it busy wait in arrival
// order on an intrusive list (a flight waits on at most one link at a time).
type link struct {
	to     NodeID
	toHost bool // mesh→host direction of a host link: queue wait is observed
	lat    sim.Duration
	bw     float64

	busy               bool
	busySince          sim.Time
	busyTotal          sim.Duration
	waitHead, waitTail *flight

	bytes int64 // traffic accounting
	msgs  int64
}

// acquire grants the idle link to f, or queues f behind the current holder.
func (l *link) acquire(f *flight, now sim.Time) bool {
	if !l.busy {
		l.busy, l.busySince = true, now
		return true
	}
	if l.waitTail == nil {
		l.waitHead = f
	} else {
		l.waitTail.next = f
	}
	l.waitTail = f
	return false
}

// release ends the holder's packet. It returns the head of the wait queue,
// which now holds the link, or nil if the link went idle.
func (l *link) release(now sim.Time) *flight {
	l.busyTotal += now.Sub(l.busySince)
	f := l.waitHead
	if f == nil {
		l.busy = false
		return nil
	}
	l.waitHead, f.next = f.next, nil
	if l.waitHead == nil {
		l.waitTail = nil
	}
	l.busySince = now
	return f
}

// pairSeq is the sequencing state of one (src,dst) pair. Packetized messages
// can overtake each other in flight, so arrivals are re-ordered before
// delivery to preserve the FIFO guarantee the message layer builds on: sent
// numbers the pair's sends, rcvd counts those delivered (or dropped) in
// order. It holds no pointer, so a source's row of them is never scanned.
type pairSeq struct {
	sent, rcvd uint64
}

// Network is the simulated interconnect.
type Network struct {
	eng      *sim.Engine
	cfg      Config
	top      topo.Topology
	nNodes   int
	nRouters int
	out      [][]link // out[v]: the directed links leaving vertex v, host links included
	deliver  []Handler
	seq      uint64

	// pairs[src][dst] sequences the pair's messages; a source's row is
	// allocated on its first remote send.
	pairs [][]pairSeq

	// held buffers arrivals that overtook an earlier message of their pair
	// until the gap before them closes.
	held map[heldKey]arrival

	// FaultHook, when set, is consulted once per remote Send and returns the
	// fault verdict for that envelope's traversal: extra delivery delay, and
	// whether the message is dropped before reaching its destination. A
	// dropped envelope still traverses the path (its packets occupy links)
	// and still advances the pair's arrival sequencing, so FIFO delivery of
	// the surviving traffic is preserved. Installed by the fault-injection
	// layer; nil — the default — leaves the data path untouched.
	FaultHook func(env *Envelope) (delay sim.Duration, drop bool)

	// TransitHook, when set, is told about every message forwarded through
	// an intermediate vertex (software routing CPU accounting; the node
	// layer ignores routing-only switch vertices).
	TransitHook func(node NodeID, bytes int)

	// Obs receives per-sender traffic counters and the queue-wait histogram
	// of the mesh→host direction of the host links (the path every stable-
	// storage write takes); nil disables the instrumentation.
	Obs *obs.Observer

	totalMsgs  int64
	totalBytes int64
	arrived    int64 // messages delivered or dropped
}

// New builds the topology plus host links described by cfg.
func New(eng *sim.Engine, cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic("fabric: " + err.Error())
	}
	top := cfg.topology()
	nh := cfg.NumHosts()
	vertices := top.Nodes() + top.Routers() + nh
	n := &Network{
		eng:      eng,
		cfg:      cfg,
		top:      top,
		nNodes:   top.Nodes(),
		nRouters: top.Routers(),
		out:      make([][]link, vertices),
		deliver:  make([]Handler, vertices),
		pairs:    make([][]pairSeq, vertices),
		held:     make(map[heldKey]arrival),
	}
	// Flights point into out's rows, which is safe because no link is added
	// once New returns.
	addLink := func(a, b NodeID, lat sim.Duration, bw float64) {
		n.out[a] = append(n.out[a], link{to: b, toHost: n.isHost(b), lat: lat, bw: bw})
		n.out[b] = append(n.out[b], link{to: a, toHost: n.isHost(a), lat: lat, bw: bw})
	}
	for _, lk := range top.Links() {
		mult := lk.Cap
		if mult <= 0 {
			mult = 1
		}
		addLink(NodeID(lk.A), NodeID(lk.B), cfg.LinkLatency, cfg.LinkBandwidth*mult)
	}
	for i := 0; i < nh; i++ {
		addLink(cfg.AttachOf(i), cfg.HostID(i), cfg.HostLatency, cfg.HostBandwidth)
	}
	return n
}

// Config returns the interconnect configuration.
func (n *Network) Config() Config { return n.cfg }

// isHost reports whether id is a host endpoint (as opposed to a compute node
// or a routing-only switch).
func (n *Network) isHost(id NodeID) bool { return int(id) >= n.nNodes+n.nRouters }

func (n *Network) hostIndex(id NodeID) int { return int(id) - n.nNodes - n.nRouters }

// isEndpoint reports whether id can send and receive: a compute node or a
// host, not a routing-only switch.
func (n *Network) isEndpoint(id NodeID) bool {
	return id >= 0 && int(id) < len(n.deliver) && (int(id) < n.nNodes || n.isHost(id))
}

// Path returns the sequence of directed hops a message from src to dst
// crosses: the topology's deterministic route, with a host link first/last as
// needed. It walks the route on every call and the result is the caller's.
// Like Send, it panics unless both ends are endpoints.
func (n *Network) Path(src, dst NodeID) [][2]NodeID {
	if !n.isEndpoint(dst) {
		panic(fmt.Sprintf("fabric: path to invalid node %d", dst))
	}
	if !n.isEndpoint(src) {
		panic(fmt.Sprintf("fabric: path from invalid node %d", src))
	}
	var hops [][2]NodeID
	for cur := src; cur != dst; {
		to := n.nextLink(cur, dst).to
		hops = append(hops, [2]NodeID{cur, to})
		cur = to
	}
	return hops
}

// nextLink resolves one routing step: the link a message bound for endpoint
// dst leaves vertex cur on, cur != dst. A host is reached only through its
// attach point, so the step is the host link when cur is a host or is the
// attach point of host dst, and the topology's own next hop otherwise.
func (n *Network) nextLink(cur, dst NodeID) *link {
	to, last := dst, dst // last: where the route leaves the topology proper
	if n.isHost(dst) {
		last = n.cfg.AttachOf(n.hostIndex(dst))
	}
	if n.isHost(cur) {
		to = n.cfg.AttachOf(n.hostIndex(cur))
	} else if cur != last {
		to = NodeID(n.top.Next(int(cur), int(last)))
	}
	out := n.out[cur]
	for i := range out {
		if out[i].to == to {
			return &out[i]
		}
	}
	panic(fmt.Sprintf("fabric: %s routes %d→%d over the undeclared link %d→%d", n.top.Name(), cur, dst, cur, to))
}

// SetDeliver installs the delivery handler for endpoint id.
func (n *Network) SetDeliver(id NodeID, h Handler) { n.deliver[id] = h }

// Send injects env into the network. If sender is non-nil the configured
// software send overhead is charged to it (the sender blocks for that time);
// transport then proceeds asynchronously as engine events, so Send models a
// non-blocking (buffered) send. Send panics on an invalid source or
// destination (routing-only switches are not endpoints).
func (n *Network) Send(sender *sim.Proc, env *Envelope) {
	if !n.isEndpoint(env.Dst) {
		panic(fmt.Sprintf("fabric: send to invalid node %d", env.Dst))
	}
	if !n.isEndpoint(env.Src) {
		panic(fmt.Sprintf("fabric: send from invalid node %d", env.Src))
	}
	n.seq++
	env.Seq = n.seq
	env.SentAt = n.eng.Now()
	n.totalMsgs++
	n.totalBytes += int64(env.Size)
	n.Obs.Add(int(env.Src), "fabric.msgs_sent", 1)
	n.Obs.Add(int(env.Src), "fabric.bytes_sent", int64(env.Size))
	if sender != nil && n.cfg.SendOverhead > 0 {
		sender.Sleep(n.cfg.SendOverhead)
	}
	if env.Src == env.Dst {
		n.eng.After(n.cfg.LocalLatency, func() { n.complete(env, false) })
		return
	}
	row := n.pairs[env.Src]
	if row == nil {
		row = make([]pairSeq, len(n.pairs))
		n.pairs[env.Src] = row
	}
	row[env.Dst].sent++
	f := &flight{
		n: n, env: env, pairSeq: row[env.Dst].sent,
		link: n.nextLink(env.Src, env.Dst), remaining: env.Size,
	}
	f.step = f.advance
	// The fault verdict is drawn at send time, in deterministic send order,
	// so the injection stream does not depend on how flights interleave.
	if n.FaultHook != nil {
		f.delay, f.dropped = n.FaultHook(env)
	}
	n.eng.After(0, f.step)
}

// flight is one remote message in transit: a state machine walking its route
// one link at a time, advanced by engine events. It holds no path — link is
// resolved when the previous hop completes and serves every packet of the
// hop. step is advance bound once per message, so scheduling the flight's
// next event allocates nothing.
type flight struct {
	n       *Network
	env     *Envelope
	pairSeq uint64
	delay   sim.Duration // fault verdict: extra delay before arrival
	dropped bool         // fault verdict: lost before delivery
	step    func()

	state     flightState
	link      *link // the hop being crossed
	remaining int   // bytes of env still to cross link
	chunk     int   // bytes of the packet on the wire
	queuedAt  sim.Time
	waited    sim.Duration // queue wait accumulated on a host-link hop
	next      *flight      // link wait-queue linkage
}

// flightState says what the flight's pending event means.
type flightState uint8

const (
	flightReady   flightState = iota // about to contend for link
	flightQueued                     // waiting on link; the event is the grant
	flightOnWire                     // a packet occupies link; the event ends it
	flightDelayed                    // route crossed; the event ends the fault delay
)

// advance runs one event of the flight. The schedule is exactly the one a
// process doing Acquire / Sleep / Release per packet would produce, push for
// push: a release wakes the queue head before the releaser contends again,
// so a multi-packet message yields the link between packets.
func (f *flight) advance() {
	n, l, now := f.n, f.link, f.n.eng.Now()
	switch f.state {
	case flightDelayed:
		n.arrive(f)
		return
	case flightQueued:
		// Queue-wait accounting for the host-link hop: the time this
		// message's packets spend waiting behind competing traffic for the
		// shared path to stable storage.
		if l.toHost {
			f.waited += now.Sub(f.queuedAt)
		}
		f.transmit(l)
		return
	case flightOnWire:
		if w := l.release(now); w != nil {
			n.eng.After(0, w.step)
		}
		if f.remaining -= f.chunk; f.remaining > 0 {
			break
		}
		if l.toHost && n.Obs.Enabled() {
			n.Obs.ObserveDur(int(f.env.Src), "storage.hostlink_queue_wait", f.waited)
		}
		l.bytes += int64(f.env.Size)
		l.msgs++
		if l.to != f.env.Dst && n.TransitHook != nil {
			n.TransitHook(l.to, f.env.Size)
		}
		if l.to == f.env.Dst {
			if f.delay > 0 {
				f.state = flightDelayed
				n.eng.After(f.delay, f.step)
				return
			}
			n.arrive(f)
			return
		}
		l = n.nextLink(l.to, f.env.Dst)
		f.link, f.remaining = l, f.env.Size
	}
	if !l.acquire(f, now) {
		f.state, f.queuedAt = flightQueued, now
		return
	}
	f.transmit(l)
}

// transmit puts the flight's next packet on l, which the flight holds.
func (f *flight) transmit(l *link) {
	f.chunk = f.remaining
	if pb := f.n.cfg.PacketBytes; pb > 0 && f.chunk > pb {
		f.chunk = pb
	}
	f.state = flightOnWire
	f.n.eng.After(l.lat+sim.BytesAt(f.chunk, l.bw), f.step)
}

// heldKey names one out-of-order arrival: its pair and its pair sequence
// number.
type heldKey struct {
	src, dst NodeID
	seq      uint64
}

// arrival is one completed traversal awaiting in-order delivery. Dropped
// arrivals advance the sequence without a handoff: the envelope is lost, but
// later traffic on the pair is not stalled behind it.
type arrival struct {
	env     *Envelope
	dropped bool
}

// arrive re-sequences packetized arrivals so each (src,dst) pair delivers in
// send order, then hands envelopes to the destination.
func (n *Network) arrive(f *flight) {
	p := &n.pairs[f.env.Src][f.env.Dst]
	key := heldKey{f.env.Src, f.env.Dst, f.pairSeq}
	if f.pairSeq != p.rcvd+1 {
		n.held[key] = arrival{env: f.env, dropped: f.dropped}
		return
	}
	p.rcvd++
	n.complete(f.env, f.dropped)
	for len(n.held) > 0 {
		key.seq = p.rcvd + 1
		next, ok := n.held[key]
		if !ok {
			return
		}
		delete(n.held, key)
		p.rcvd++
		n.complete(next.env, next.dropped)
	}
}

// complete ends env's transit: it leaves the in-flight count and, unless it
// was dropped, is handed to its destination.
func (n *Network) complete(env *Envelope, dropped bool) {
	n.arrived++
	if h := n.deliver[env.Dst]; h != nil && !dropped {
		h(env)
	}
}

// LinkStats describes accumulated traffic on one directed link.
type LinkStats struct {
	From, To NodeID
	Bytes    int64
	Msgs     int64
	Busy     sim.Duration
}

// HostLinkStatsOf returns traffic stats of the mesh→host direction of host
// link i, the principal bottleneck for checkpoint traffic to that server.
func (n *Network) HostLinkStatsOf(i int) LinkStats {
	from := n.cfg.AttachOf(i)
	return n.nextLink(from, n.cfg.HostID(i)).stats(from)
}

// stats reports the traffic l, which leaves vertex from, has carried.
func (l *link) stats(from NodeID) LinkStats {
	return LinkStats{From: from, To: l.to, Bytes: l.bytes, Msgs: l.msgs, Busy: l.busyTotal}
}

// HostLinkStats returns traffic stats of the mesh→host direction of the
// first host link (the only one on the legacy single-server machine).
func (n *Network) HostLinkStats() LinkStats { return n.HostLinkStatsOf(0) }

// TotalTraffic returns the total number of messages and payload bytes
// injected since the network was created.
func (n *Network) TotalTraffic() (msgs, bytes int64) { return n.totalMsgs, n.totalBytes }

// InFlight returns the number of messages sent and not yet delivered or
// dropped: on links, in a fault delay, or held for re-sequencing. It is zero
// once a run has drained; a stuck message owns no process, so this count —
// not a DeadlockError — is where one would show.
func (n *Network) InFlight() int64 { return n.totalMsgs - n.arrived }
