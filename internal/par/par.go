// Package par assembles the simulated parallel machine: compute nodes on the
// fabric, the stable-storage host, and per-node plumbing shared by the
// message-passing layer (package mp) and the checkpointing protocols
// (package ckpt).
//
// The architecture mirrors the paper's CHK-LIB on Parix: each node runs the
// application process plus a checkpointer daemon process; protocol traffic
// and application traffic share the interconnect; all nodes reach stable
// storage through the host link.
package par

import (
	"errors"
	"fmt"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Ports demultiplex envelopes within a node.
const (
	PortApp    = 0 // application messages and safe-point actions
	PortDaemon = 1 // checkpointer protocol and storage replies
)

// Config describes the whole machine.
type Config struct {
	Fabric  fabric.Config
	Storage storage.Config

	CPUOpsPerSec float64      // application compute speed (abstract ops/s)
	MemCopyBW    float64      // main-memory checkpoint copy bandwidth (bytes/s)
	ComputeSlice sim.Duration // max uninterruptible compute chunk

	MsgHeader int // wire overhead added to every message payload, bytes

	// MsgWindow is the per-(sender,receiver) flow-control window of the
	// message layer: a sender blocks once this many application messages to
	// one destination are outstanding (sent but not yet consumed). The
	// transputer links of the modelled machine were rendezvous-based with
	// little buffering, so the window is small.
	MsgWindow int

	// CkptImageBytes is the fixed process-image portion of every checkpoint
	// (stack, library buffers, bookkeeping) written in addition to the
	// application's data — CHK-LIB saved process state, not bare arrays.
	CkptImageBytes int

	// StorageServers shards stable storage across this many servers, each
	// behind its own host link (attach points from Fabric.HostAttaches, or
	// an even spread). 0 or 1 reproduces the paper's single SunSparc file
	// server. Every rank's files live on exactly one server, chosen by the
	// Placement policy; the storage client addresses that shard for the
	// rank's saves and recovery reads alike.
	StorageServers int

	// Placement names the rank→server placement policy
	// (storage.ParsePlacement): "stripe" (round-robin, the default),
	// "hash", or "nearest".
	Placement string
}

// DefaultConfig returns parameters calibrated to the paper's testbed: a
// Parsytec Xplorer with 8 T805 transputers (2x4 mesh), host link on node 0,
// and a SunSparc file server. See DESIGN.md §5.
func DefaultConfig() Config {
	return Config{
		Fabric: fabric.Config{
			MeshW: 4, MeshH: 2,
			LinkBandwidth: 1.5e6, LinkLatency: 50 * sim.Microsecond,
			HostBandwidth: 1.0e6, HostLatency: 200 * sim.Microsecond,
			HostAttach:      0,
			SendOverhead:    25 * sim.Microsecond,
			LocalLatency:    5 * sim.Microsecond,
			PacketBytes:     4096,
			TransitCPUPerMB: 300 * sim.Millisecond,
		},
		Storage: storage.Config{
			ReqOverhead:    15 * sim.Millisecond,
			AppendOverhead: 2 * sim.Millisecond,
			MetaOverhead:   2 * sim.Millisecond,
			CreateOverhead: 25 * sim.Millisecond,
			WriteBandwidth: 1.2e6,
			ReadBandwidth:  2.0e6,
		},
		CPUOpsPerSec:   1e7,
		MemCopyBW:      15e6,
		ComputeSlice:   50 * sim.Millisecond,
		MsgHeader:      64,
		MsgWindow:      4,
		CkptImageBytes: 64 * 1024,
	}
}

// PiggybackKey names one logical-clock channel piggybacked on every
// application message. Each checkpointing family that needs dependency
// metadata on the wire owns a key, so several protocols' clocks can coexist
// (and be compared in the same codebase) without colliding.
type PiggybackKey int

const (
	// PBInterval is the independent family's checkpoint-interval index
	// (dependency tracking for recovery-line analysis, package rdg).
	PBInterval PiggybackKey = iota
	// PBCIC is the communication-induced family's checkpoint index — the
	// BCS-style logical clock that forces checkpoints before delivery
	// (ckpt.DriverInduced).
	PBCIC

	// NumPiggyback is the number of piggyback channels.
	NumPiggyback
)

// Piggyback is the typed piggyback vector carried by every application
// message. It is a small fixed array rather than a map so that copying a
// message costs nothing extra and the zero value means "no metadata".
type Piggyback [NumPiggyback]uint64

// Snapshotter is implemented by application programs so the checkpointing
// layer can capture and restore their state.
//
// Snapshot returns freshly owned bytes the program never writes again: the
// checkpointer may hand them to stable storage as they are, and a full-image
// checkpoint does — the slice becomes part of the durable file, not a copy of
// it. An incremental checkpoint is encoded from the slice where it lies, and
// once it commits the slice itself is the diff baseline the next one is
// encoded against, held until the commit after. A program that snapshots into
// a buffer it reuses rewrites its own checkpoints or that baseline (the oracle
// reports both: check.TestDroppedCopyStillBites).
// Restore is lent data — it may come straight out of a stored file — and
// copies out whatever it keeps and later changes.
type Snapshotter interface {
	Snapshot() []byte
	Restore(data []byte)
}

// IndexedSnapshotter is an optional extension of Snapshotter: a program that
// implements it is told which checkpoint each capture or rollback belongs to
// (the coordinated round number, or the rank's checkpoint index for the
// autonomous families). The checkpointing layer probes for it with a type
// assertion — a host-side branch costing no virtual time — so an
// instrumentation wrapper can keep per-checkpoint side tables without
// growing the checkpoint image it is supposed to be observing.
type IndexedSnapshotter interface {
	Snapshotter
	SnapshotAt(index int) []byte
	RestoreAt(index int, data []byte)
}

// SnapshotAt captures s's state for checkpoint index, telling the program
// the index when it listens for one.
func SnapshotAt(s Snapshotter, index int) []byte {
	if is, ok := s.(IndexedSnapshotter); ok {
		return is.SnapshotAt(index)
	}
	return s.Snapshot()
}

// RestoreAt rolls s back to the state captured for checkpoint index.
func RestoreAt(s Snapshotter, index int, data []byte) {
	if is, ok := s.(IndexedSnapshotter); ok {
		is.RestoreAt(index, data)
		return
	}
	s.Restore(data)
}

// Action is a unit of checkpointing work executed in the application
// process's context at its next safe point (any message-passing library
// call). Blocking checkpoint variants park the application inside Run.
type Action interface {
	Run(p *sim.Proc, n *Node)
}

// RetryPolicy governs the storage client's fault tolerance: how many times a
// failed or timed-out stable-storage request is re-issued, the per-attempt
// reply deadline, and how the capped exponential backoff between attempts
// grows. The zero value disables retries (a single attempt, no deadline) —
// the unarmed default, under which StorageCallRetry behaves exactly like
// StorageCall.
type RetryPolicy struct {
	Attempts int          // total attempts per operation (<= 1 means no retry)
	Timeout  sim.Duration // per-attempt reply deadline (0 = wait forever)
	Base     sim.Duration // backoff before the first retry
	Cap      sim.Duration // upper bound on the exponential backoff
}

// DefaultRetryPolicy is the policy the fault-injection layer installs when a
// plan arms a machine without overriding it.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		Attempts: 5,
		Timeout:  10 * sim.Second,
		Base:     100 * sim.Millisecond,
		Cap:      2 * sim.Second,
	}
}

// Machine is the simulated multicomputer.
type Machine struct {
	Eng *sim.Engine
	Cfg Config
	Net *fabric.Network

	// Store is the first (on the default machine: only) stable-storage
	// server — an alias of Stores[0] kept for the single-server call sites.
	Store *storage.Server

	// Stores holds every storage server; server i sits behind host link i
	// (fabric HostID(i)). Len 1 unless Config.StorageServers shards storage.
	Stores []*storage.Server

	Nodes []*Node

	// shard maps each rank to the index in Stores holding its files,
	// resolved once from Config.Placement at build time.
	shard []int

	// Retry governs StorageCallRetry and the checkpoint daemons' durable
	// writes. The zero value (single attempt) is the unarmed default; the
	// fault-injection layer installs a real policy when it arms the machine.
	Retry RetryPolicy

	// Jitter, when set, draws backoff jitter factors in [0,1) from the fault
	// plan's deterministic stream; nil means unjittered backoff.
	Jitter func() float64

	// StorageRetries counts re-issued storage operations machine-wide.
	StorageRetries int64

	// Epoch is the incarnation number: bumped on every failure so that
	// in-flight traffic from a previous incarnation is discarded on arrival.
	Epoch int

	// Obs is the machine-wide observability sink; nil (the default) disables
	// all instrumentation at zero cost. Install it with SetObserver before
	// the simulation starts.
	Obs *obs.Observer

	// PhaseHook, when set, observes protocol phase announcements
	// (NotePhase): checkpointing schemes name the instants a protocol round
	// passes through ("round", "acks", "precommit", "meta", "commit") so the
	// fault-injection layer can schedule targeted crashes inside a chosen
	// protocol window. The hook runs synchronously in whatever context
	// announces the phase and must not block or consume virtual time; nil
	// (the default) makes every announcement a zero-cost branch, so an
	// unarmed machine's schedule is untouched.
	PhaseHook func(phase string, round int)

	appsLive  int
	stopHooks []func()
	exitHooks []func(nodeID int)

	// AppsFinished is the virtual time the last application process
	// completed (the measured execution time of a run).
	AppsFinished sim.Time
}

// NewMachine builds the machine: engine, fabric, storage servers and nodes.
func NewMachine(cfg Config) *Machine {
	if cfg.StorageServers > 1 && cfg.Fabric.Hosts < cfg.StorageServers {
		cfg.Fabric.Hosts = cfg.StorageServers // one host endpoint per server
	}
	pl, err := storage.ParsePlacement(cfg.Placement)
	if err != nil {
		panic("par: " + err.Error())
	}
	eng := sim.New()
	m := &Machine{
		Eng: eng,
		Cfg: cfg,
		Net: fabric.New(eng, cfg.Fabric),
	}
	m.Stores = make([]*storage.Server, cfg.Fabric.NumHosts())
	for i := range m.Stores {
		m.Stores[i] = storage.New(eng, cfg.Storage)
	}
	m.Store = m.Stores[0]
	n := cfg.Fabric.Nodes()
	m.shard = pl.Assign(n, len(m.Stores), func(rank, server int) int {
		return len(m.Net.Path(fabric.NodeID(rank), cfg.Fabric.HostID(server)))
	})
	m.Nodes = make([]*Node, n)
	for i := 0; i < n; i++ {
		node := &Node{M: m, ID: i, Alive: true}
		node.reset()
		m.Nodes[i] = node
		m.Net.SetDeliver(fabric.NodeID(i), node.deliver)
	}
	for i := range m.Stores {
		i := i
		m.Net.SetDeliver(cfg.Fabric.HostID(i), func(env *fabric.Envelope) { m.hostDeliver(i, env) })
	}
	if cfg.Fabric.TransitCPUPerMB > 0 {
		m.Net.TransitHook = func(id fabric.NodeID, bytes int) {
			if int(id) < n {
				debt := sim.Duration(float64(cfg.Fabric.TransitCPUPerMB) * float64(bytes) / 1e6)
				m.Nodes[id].cpuDebt += debt
			}
		}
	}
	return m
}

// NumNodes returns the number of compute nodes.
func (m *Machine) NumNodes() int { return len(m.Nodes) }

// SetObserver installs the observability sink across the whole machine: it
// binds the observer to the engine's virtual clock, names the trace pids
// (one per node, plus the host), and hands the observer to the fabric and
// the storage server. Call it before the simulation starts.
func (m *Machine) SetObserver(o *obs.Observer) {
	if o == nil {
		return
	}
	m.Obs = o
	o.Bind(m.Eng)
	for i := range m.Nodes {
		o.PidName(i, fmt.Sprintf("node%d", i))
	}
	m.Net.Obs = o
	if len(m.Stores) == 1 {
		host := int(m.Cfg.Fabric.Host())
		o.PidName(host, "host")
		o.TidName(host, obs.TidDaemon, "storage")
		m.Store.SetObserver(o, host)
		return
	}
	for i, s := range m.Stores {
		host := int(m.Cfg.Fabric.HostID(i))
		o.PidName(host, fmt.Sprintf("host%d", i))
		o.TidName(host, obs.TidDaemon, "storage")
		s.SetObserver(o, host)
	}
}

// hostDeliver services envelopes addressed to host endpoint i: stable-
// storage requests for server i carried as payloads.
func (m *Machine) hostDeliver(i int, env *fabric.Envelope) {
	if env.Inc != m.Epoch {
		return // stale traffic from a previous incarnation
	}
	if req, ok := env.Payload.(storage.Request); ok {
		m.Stores[i].Submit(req)
	}
}

// NumStores returns the number of stable-storage servers.
func (m *Machine) NumStores() int { return len(m.Stores) }

// ShardOf returns the index of the storage server holding rank's files.
func (m *Machine) ShardOf(rank int) int { return m.shard[rank] }

// StoreFor returns the storage server holding rank's files.
func (m *Machine) StoreFor(rank int) *storage.Server { return m.Stores[m.shard[rank]] }

// StorageQueueLen sums the request backlog across every storage server
// (mailbox plus the request in service).
func (m *Machine) StorageQueueLen() int {
	total := 0
	for _, s := range m.Stores {
		total += s.QueueLen()
	}
	return total
}

// OnAllAppsDone registers fn to run when the last live application process
// finishes (used by checkpointing schemes to cancel their timers).
func (m *Machine) OnAllAppsDone(fn func()) { m.stopHooks = append(m.stopHooks, fn) }

// OnAppExit registers fn to run whenever an application process finishes
// normally (used by coordinated checkpointing to complete a round on behalf
// of a process that exits mid-protocol).
func (m *Machine) OnAppExit(fn func(nodeID int)) { m.exitHooks = append(m.exitHooks, fn) }

func (m *Machine) appStarted() { m.appsLive++ }

func (m *Machine) appDone() {
	m.appsLive--
	if m.appsLive == 0 {
		m.AppsFinished = m.Eng.Now()
		for _, fn := range m.stopHooks {
			fn()
		}
		m.stopHooks = nil
	}
}

// AppsLive returns the number of running application processes.
func (m *Machine) AppsLive() int { return m.appsLive }

// NotePhase announces that a protocol phase was entered (coordinated
// checkpointing names its round phases through here). A nil PhaseHook makes
// the call free.
func (m *Machine) NotePhase(phase string, round int) {
	if m.PhaseHook != nil {
		m.PhaseHook(phase, round)
	}
}

// Run executes the simulation to completion.
func (m *Machine) Run() error { return m.Eng.Run() }

// CollectPerf folds the machine's host-side counters into an armed perf
// sampler: the engine's event-loop statistics (scheduled and executed
// events, queue high-water mark, processes spawned). It is the machine-level
// hook of the host telemetry layer — purely host-side reads, so calling it
// on an armed sampler cannot perturb the virtual schedule, and a nil sampler
// makes it free.
func (m *Machine) CollectPerf(s *perf.RunSampler) {
	s.EngineStats(m.Eng.Stats())
}

// Backoff returns the delay to sleep before retry attempt (1-based: the
// first retry is attempt 1): capped exponential from the policy's base, with
// equal jitter drawn from the deterministic fault stream when one is
// installed.
func (m *Machine) Backoff(attempt int) sim.Duration {
	d := m.Retry.Base
	if d <= 0 {
		d = 100 * sim.Millisecond
	}
	for i := 1; i < attempt; i++ {
		d *= 2
		if m.Retry.Cap > 0 && d >= m.Retry.Cap {
			break
		}
	}
	if m.Retry.Cap > 0 && d > m.Retry.Cap {
		d = m.Retry.Cap
	}
	if m.Jitter != nil {
		d = d/2 + sim.Duration(float64(d/2)*m.Jitter())
	}
	return d
}

// NoteRetry counts one re-issued storage operation against node's metrics.
func (m *Machine) NoteRetry(node int) {
	m.StorageRetries++
	m.Obs.Add(node, "faults.storage_retries", 1)
}

// Shutdown releases the goroutines of processes still parked when the
// simulation ended (daemons, blocked processes after a deadlock). The machine
// stays readable — results, stores and snapshots survive — but cannot be run
// again. Every Machine that is not needed for further simulation should be
// shut down, or a long benchmarking process accumulates one blocked goroutine
// per daemon per run.
func (m *Machine) Shutdown() { m.Eng.Shutdown() }

// CrashAll models a total system failure at the current instant: every
// node's processes are killed, in-flight and queued messages are lost, and
// stable storage discards uncommitted data. The engine keeps running so a
// recovery procedure can restart the machine in the same simulation.
func (m *Machine) CrashAll() {
	m.Epoch++
	for _, n := range m.Nodes {
		n.crash()
	}
	for _, s := range m.Stores {
		s.Crash()
	}
}

// CrashNode models a single-node failure.
func (m *Machine) CrashNode(id int) {
	// The epoch is global; a single-node crash must not invalidate traffic
	// between surviving nodes, so instead the node records its own
	// incarnation and filters on it.
	m.Nodes[id].crash()
}

// Node is one compute node: mailboxes, the processes that live on it, and
// the hook points used by checkpointing protocols.
type Node struct {
	M     *Machine
	ID    int
	Alive bool
	Inc   int // node incarnation, bumped on crash

	AppBox    *sim.Mailbox[*fabric.Envelope]
	DaemonBox *sim.Mailbox[*fabric.Envelope]

	AppProc    *sim.Proc
	DaemonProc *sim.Proc

	// acceptAfter drops envelopes sent before the node's last restart:
	// traffic addressed to a crashed node is lost even if it is still in
	// flight when the node comes back.
	acceptAfter sim.Time

	// Snap is the application program's state capture interface, registered
	// when the program starts.
	Snap Snapshotter

	// Lib is the message layer's state capture interface (sequence
	// counters), checkpointed alongside the application state.
	Lib Snapshotter

	// LogSend, when set, receives a copy of every outgoing application
	// message after it is sent (sender-based message logging).
	LogSend func(dst int, msg any)

	// DeliverHook observes every envelope arriving at this node before it is
	// enqueued; returning true consumes the envelope (used for markers and
	// message quarantining by coordinated checkpointing). Runs in engine
	// context and must not block.
	DeliverHook func(env *fabric.Envelope) bool

	// OutMeta, when set, supplies the piggyback vector attached to outgoing
	// application messages (checkpoint indices of the independent and
	// communication-induced families).
	OutMeta func() Piggyback

	// PreConsume, when set, runs in the application process's context just
	// before a matched message is handed to the application — the delivery
	// safe point. Communication-induced checkpointing uses it to take a
	// forced checkpoint before delivering a message whose piggybacked index
	// is ahead of the local one. It may block the calling process.
	PreConsume func(p *sim.Proc, srcNode int, meta Piggyback)

	// OnConsume, when set, is called when the application consumes a
	// message (dependency tracking for independent checkpointing; the ssn is
	// zero unless message logging is active).
	OnConsume func(srcNode int, meta Piggyback, ssn uint64)

	// Transport, when set, intercepts application-port envelopes after the
	// liveness checks and before any protocol hook: the message layer's
	// reliable transport uses it to resequence, deduplicate and acknowledge
	// traffic over lossy links. It returns the envelopes to deliver now, in
	// order (empty = consumed or held for reordering). Runs in engine
	// context, must not block, and is cleared on crash like every hook.
	Transport func(env *fabric.Envelope) []*fabric.Envelope

	reqSeq    int
	cpuDebt   sim.Duration
	abandoned map[int]bool // ids of timed-out storage calls whose replies are still due
}

// ResetCPUDebt discards routing-CPU debt accrued while the application was
// not computing (a blocked process donates its CPU to the router for free).
func (n *Node) ResetCPUDebt() { n.cpuDebt = 0 }

// TakeCPUDebt returns and clears the CPU time the software router stole
// from this node since the last call; computations running concurrently are
// extended by it.
func (n *Node) TakeCPUDebt() sim.Duration {
	d := n.cpuDebt
	n.cpuDebt = 0
	return d
}

func (n *Node) reset() {
	n.AppBox = sim.NewMailbox[*fabric.Envelope](n.M.Eng)
	n.DaemonBox = sim.NewMailbox[*fabric.Envelope](n.M.Eng)
	n.DeliverHook = nil
	n.OutMeta = nil
	n.PreConsume = nil
	n.OnConsume = nil
	n.LogSend = nil
	n.Snap = nil
	n.Lib = nil
	n.Transport = nil
	n.abandoned = nil
}

func (n *Node) crash() {
	n.Alive = false
	n.Inc++
	if n.AppProc != nil && !n.AppProc.Done() {
		n.AppProc.Kill()
		n.M.appDone()
	}
	if n.DaemonProc != nil && !n.DaemonProc.Done() {
		n.DaemonProc.Kill()
	}
	n.AppProc, n.DaemonProc = nil, nil
	n.reset()
}

// Restart marks the node alive again with fresh mailboxes; the caller then
// starts new application and daemon processes on it.
func (n *Node) Restart() {
	n.Alive = true
	n.acceptAfter = n.M.Eng.Now()
	n.reset()
}

func (n *Node) deliver(env *fabric.Envelope) {
	if !n.Alive || env.Inc != n.M.Epoch || env.SentAt < n.acceptAfter {
		return // dead node or stale traffic from before its restart
	}
	if n.Transport != nil && env.Port == PortApp {
		for _, e := range n.Transport(env) {
			n.dispatch(e)
		}
		return
	}
	n.dispatch(env)
}

// dispatch runs the protocol hook and enqueues the envelope on its port. The
// reliable transport re-enters here with envelopes released from its reorder
// buffer.
func (n *Node) dispatch(env *fabric.Envelope) {
	if n.DeliverHook != nil && n.DeliverHook(env) {
		return
	}
	switch env.Port {
	case PortApp:
		n.AppBox.Put(env)
	case PortDaemon:
		n.DaemonBox.Put(env)
	}
}

// Send transmits payload to (dst node, port). If sender is non-nil the
// configured software send overhead is charged to it. size is the payload
// size in bytes; the configured message header is added on the wire.
func (n *Node) Send(sender *sim.Proc, dst fabric.NodeID, port int, payload any, size int) {
	if !n.Alive {
		return
	}
	n.M.Net.Send(sender, &fabric.Envelope{
		Src: fabric.NodeID(n.ID), Dst: dst, Port: port,
		Inc: n.M.Epoch, Size: size + n.M.Cfg.MsgHeader, Payload: payload,
	})
}

// PostAction delivers a checkpointing action to the local application
// process; it runs at the application's next safe point.
func (n *Node) PostAction(a Action) {
	n.Send(nil, fabric.NodeID(n.ID), PortApp, a, 0)
}

// StartApp spawns the node's application process. body runs in the new
// process; machine-level completion accounting is handled here.
func (m *Machine) StartApp(nodeID int, name string, body func(p *sim.Proc)) *sim.Proc {
	node := m.Nodes[nodeID]
	m.appStarted()
	node.AppProc = m.Eng.Spawn(name, func(p *sim.Proc) {
		defer func() {
			// A killed process unwinds without reaching here only in the
			// Kill path, which does its own accounting in crash().
			if !p.Killed() {
				for _, fn := range m.exitHooks {
					fn(nodeID)
				}
				m.appDone()
			}
		}()
		body(p)
	})
	return node.AppProc
}

// StartDaemon spawns a checkpointer daemon process on the node.
func (m *Machine) StartDaemon(nodeID int, name string, body func(p *sim.Proc)) *sim.Proc {
	node := m.Nodes[nodeID]
	node.DaemonProc = m.Eng.Spawn(name, body)
	node.DaemonProc.SetDaemon(true)
	return node.DaemonProc
}

// storageReply pairs a request id with the server's reply.
type storageReply struct {
	id    int
	reply storage.Reply
}

// storageTimeout marks a storage call whose deadline expired before the
// reply arrived; it is posted directly to the waiting daemon's mailbox.
type storageTimeout struct {
	id int
}

// Shard returns the index of the storage server holding this rank's files —
// the default target of every storage operation issued from the node.
func (n *Node) Shard() int { return n.M.shard[n.ID] }

// StorageCall performs a stable-storage operation over the fabric: the
// request (with its data) travels to the rank's shard's host, queues at the
// server, and the reply returns to this node's daemon port. The calling
// process parks until the reply arrives. It must only be called from a
// process that owns the daemon mailbox (the checkpointer daemon), and may
// consume unrelated envelopes' queue positions only logically: selective
// receive leaves other envelopes queued.
func (n *Node) StorageCall(p *sim.Proc, req storage.Request) storage.Reply {
	reply, _ := n.StorageCallTimeoutOn(p, n.Shard(), req, 0)
	return reply
}

// StorageCallTimeoutOn is StorageCall addressed at an explicit shard, with a
// per-attempt deadline: if the reply does not arrive within timeout (0 = wait
// forever) the call returns ok=false and an ErrUnavailable reply; the late
// reply, when it eventually arrives, is discarded by a later storage call on
// this node.
func (n *Node) StorageCallTimeoutOn(p *sim.Proc, shard int, req storage.Request, timeout sim.Duration) (storage.Reply, bool) {
	n.drainAbandoned()
	n.reqSeq++
	id := n.reqSeq
	me := fabric.NodeID(n.ID)
	host := n.M.Cfg.Fabric.HostID(shard)
	epoch := n.M.Epoch
	req.Done = func(r storage.Reply) {
		// Runs in storage-server context on the host: send the reply back
		// over the fabric.
		replySize := len(r.Data)
		n.M.Net.Send(nil, &fabric.Envelope{
			Src: host, Dst: me, Port: PortDaemon, Inc: epoch,
			Size:    replySize + n.M.Cfg.MsgHeader,
			Payload: storageReply{id: id, reply: r},
		})
	}
	n.Send(p, host, PortDaemon, req, req.Len())
	settled := new(bool)
	if timeout > 0 {
		n.M.Eng.After(timeout, func() {
			if !*settled {
				n.DaemonBox.Put(&fabric.Envelope{
					Src: me, Dst: me, Port: PortDaemon, Inc: epoch,
					Payload: storageTimeout{id: id},
				})
			}
		})
	}
	env := n.DaemonBox.Get(p, func(e *fabric.Envelope) bool {
		if st, ok := e.Payload.(storageTimeout); ok {
			return st.id == id
		}
		sr, ok := e.Payload.(storageReply)
		return ok && sr.id == id
	})
	*settled = true
	if _, ok := env.Payload.(storageTimeout); ok {
		if n.abandoned == nil {
			n.abandoned = make(map[int]bool)
		}
		n.abandoned[id] = true
		return storage.Reply{Err: fmt.Errorf("%w: no reply within %v", storage.ErrUnavailable, timeout)}, false
	}
	return env.Payload.(storageReply).reply, true
}

// drainAbandoned discards replies of timed-out calls that arrived since the
// last storage operation, so they cannot satisfy a future call's matcher.
func (n *Node) drainAbandoned() {
	for len(n.abandoned) > 0 {
		env, ok := n.DaemonBox.TakeMatch(func(e *fabric.Envelope) bool {
			sr, ok := e.Payload.(storageReply)
			return ok && n.abandoned[sr.id]
		})
		if !ok {
			return
		}
		delete(n.abandoned, env.Payload.(storageReply).id)
	}
}

// StorageCallRetry is StorageCall hardened by the machine's retry policy:
// transient failures (injected faults, timeouts) are re-issued with capped,
// jittered exponential backoff. Definitive errors such as ErrNotFound are
// returned immediately, and under the zero policy the behavior is exactly
// StorageCall's.
func (n *Node) StorageCallRetry(p *sim.Proc, req storage.Request) storage.Reply {
	return n.StorageCallRetryOn(p, n.Shard(), req)
}

// StorageCallRetryOn is StorageCallRetry addressed at an explicit shard.
func (n *Node) StorageCallRetryOn(p *sim.Proc, shard int, req storage.Request) storage.Reply {
	var reply storage.Reply
	n.WithRetry(p, func(int) bool {
		var ok bool
		reply, ok = n.StorageCallTimeoutOn(p, shard, req, n.M.Retry.Timeout)
		return ok && !errors.Is(reply.Err, storage.ErrUnavailable)
	})
	return reply
}

// WithRetry is the machine's retry policy around one operation: try makes
// attempt number attempt (0 first) and reports whether it is final — it
// succeeded or failed definitively. A non-final attempt is retried after a
// capped, jittered exponential backoff until the policy's attempts are spent;
// under the zero policy try runs once.
func (n *Node) WithRetry(p *sim.Proc, try func(attempt int) bool) {
	attempts := max(1, n.M.Retry.Attempts)
	for attempt := 0; !try(attempt) && attempt+1 < attempts; attempt++ {
		n.M.NoteRetry(n.ID)
		p.Sleep(n.M.Backoff(attempt + 1))
	}
}

// StorageSend transmits a stable-storage request to the rank's shard without
// waiting for a reply (fire-and-forget). Requests from one node to its shard
// are delivered and serviced in FIFO order, so a subsequent StorageCall acts
// as a barrier for all preceding StorageSends.
func (n *Node) StorageSend(sender *sim.Proc, req storage.Request) {
	n.Send(sender, n.M.Cfg.Fabric.HostID(n.Shard()), PortDaemon, req, req.Len())
}

// MemCopyTime returns the time to copy n bytes within node memory
// (main-memory checkpointing).
func (m *Machine) MemCopyTime(n int) sim.Duration {
	return sim.BytesAt(n, m.Cfg.MemCopyBW)
}

// ComputeTime converts abstract operation counts to CPU time.
func (m *Machine) ComputeTime(ops float64) sim.Duration {
	return sim.Duration(ops / m.Cfg.CPUOpsPerSec * float64(sim.Second))
}

func (n *Node) String() string { return fmt.Sprintf("node%d", n.ID) }
