// Package ckpt implements the checkpointing schemes the paper compares, and
// the families added since, as points on five axes (the fields of Variant):
//
//	Driver      what decides when a node checkpoints: coordinated two-phase
//	            rounds | local timers | local timers + the communication-
//	            induced forced-checkpoint rule
//	Capture     full padded image | incremental base+delta chain
//	Write       what blocks the application: the whole round to commit | its
//	            own durable write | a memory copy | a memory copy, with the
//	            background writes staggered by a token
//	ThreePhase  pre-commit phase and coordinator election (rounds only)
//	SenderLog   sender-based message logging (timers only)
//
// The 14 opened points, by driver × capture (rows) and write policy (columns):
//
//	              to commit  to durable                 mem copy    mem copy + stagger
//	rounds  full  Coord_B    Coord_NB, Coord_NB_FT      Coord_NBM   Coord_NBMS
//	rounds  inc   ·          Coord_NB_INC, .._FT_INC    ·           ·
//	timers  full  -          Indep, Indep_Log           Indep_M     -
//	timers  inc   -          Indep_INC                  ·           -
//	induced full  -          CIC                        CIC_M       -
//	induced inc   -          CIC_INC                    ·           -
//
// "-" is not a point (commit and the token ring belong to rounds); "·" is
// legal but not opened: New refuses it, because overlapping captures under a
// memory-buffered incremental writer (and 3PC or a sender log off the NB
// column) need their own soundness argument under the oracle (package check)
// before a name and a table column. Behaviour everywhere reads the axes,
// never a scheme's name.
//
// Protocol control messages travel on the same simulated network as
// application messages, and all checkpoint data flows through the host link
// to the shared stable-storage server, reproducing the contention structure
// of the paper's testbed.
package ckpt

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Driver is the protocol axis: what decides when a node checkpoints.
type Driver uint8

const (
	// DriverRounds is coordinated checkpointing: the Silva & Silva
	// coordinator-initiated two-phase protocol with channel markers, a
	// descendant of Chandy-Lamport distributed snapshots.
	DriverRounds Driver = iota
	// DriverTimers is independent checkpointing: each node's local timer, no
	// synchronization. Dependencies between checkpoint intervals are tracked
	// by piggybacking interval indices on messages and persisted with each
	// checkpoint, enabling recovery-line computation (package rdg).
	DriverTimers
	// DriverInduced is DriverTimers plus the communication-induced rule: a
	// node takes a forced checkpoint before delivering a message whose
	// piggybacked index is ahead of its own (see localTimers).
	DriverInduced
)

// Capture is what a checkpoint writes: the full padded process image, or a
// base+delta chain (every BaseEvery-th checkpoint a zero-run-compressed
// base, page deltas against the previous durable checkpoint between).
type Capture uint8

const (
	CaptureFull Capture = iota
	CaptureIncremental
)

// Write is the write policy: what the application is blocked on.
type Write uint8

const (
	// WriteToCommit blocks the application until the whole round commits
	// (the paper's fully blocking baseline).
	WriteToCommit Write = iota
	// WriteToDurable blocks it only until its own state is durable.
	WriteToDurable
	// WriteMemCopy blocks it for a main-memory copy; the daemon saves the
	// copy in the background.
	WriteMemCopy
	// WriteMemStagger is WriteMemCopy with the background writes serialized
	// by a token passed round the ring of nodes.
	WriteMemStagger
)

// Variant names one checkpointing scheme as a point on the axes above. It is
// a comparable value: the zero Variant is CoordB, and the exported scheme
// values below are the points this repository has opened (see the package
// comment for the ones it has not).
type Variant struct {
	Driver  Driver
	Capture Capture
	Write   Write
	// ThreePhase adds the fault-tolerant coordinated protocol: a pre-commit
	// phase after every ack, so a participant that saw pre-commit proves
	// every rank's files are durable and a successor coordinator can
	// deterministically finish the round, while a round nobody pre-committed
	// provably has no durable round record and aborts cleanly. Paired with
	// the heartbeat/timeout election it always arms (rank-order succession,
	// no wall-clock randomness) it survives the coordinator dying mid-round.
	ThreePhase bool
	// SenderLog adds sender-based message logging (the paper's §1 fix for
	// the domino effect): senders keep volatile logs of outgoing messages,
	// receivers suppress duplicates by sequence number, and a single failed
	// node recovers from its own last checkpoint alone (RecoverNode).
	SenderLog bool
}

// The opened schemes. CoordB is the fully blocking baseline the paper's
// library also supported; the paper's tables use NB, NBM, NBMS, Indep and
// IndepM. The CIC family is the index-based BCS protocol, the _INC schemes
// the incremental captures of the three families, the _FT pair the
// fault-tolerant coordinated protocol.
var (
	CoordB       = Variant{Driver: DriverRounds, Write: WriteToCommit}
	CoordNB      = Variant{Driver: DriverRounds, Write: WriteToDurable}
	CoordNBM     = Variant{Driver: DriverRounds, Write: WriteMemCopy}
	CoordNBMS    = Variant{Driver: DriverRounds, Write: WriteMemStagger}
	Indep        = Variant{Driver: DriverTimers, Write: WriteToDurable}
	IndepM       = Variant{Driver: DriverTimers, Write: WriteMemCopy}
	IndepLog     = Variant{Driver: DriverTimers, Write: WriteToDurable, SenderLog: true}
	CIC          = Variant{Driver: DriverInduced, Write: WriteToDurable}
	CICM         = Variant{Driver: DriverInduced, Write: WriteMemCopy}
	CoordNBInc   = Variant{Driver: DriverRounds, Capture: CaptureIncremental, Write: WriteToDurable}
	IndepInc     = Variant{Driver: DriverTimers, Capture: CaptureIncremental, Write: WriteToDurable}
	CICInc       = Variant{Driver: DriverInduced, Capture: CaptureIncremental, Write: WriteToDurable}
	CoordNBFT    = Variant{Driver: DriverRounds, Write: WriteToDurable, ThreePhase: true}
	CoordNBFTInc = Variant{Driver: DriverRounds, Capture: CaptureIncremental, Write: WriteToDurable, ThreePhase: true}
)

// variants is the single ordered table of the opened points and their names:
// String, ParseVariant, VariantNames and New's legality check all derive from
// it, so they cannot drift apart when a point is opened.
var variants = []struct {
	v    Variant
	name string
}{
	{CoordB, "Coord_B"},
	{CoordNB, "Coord_NB"},
	{CoordNBM, "Coord_NBM"},
	{CoordNBMS, "Coord_NBMS"},
	{Indep, "Indep"},
	{IndepM, "Indep_M"},
	{IndepLog, "Indep_Log"},
	{CIC, "CIC"},
	{CICM, "CIC_M"},
	{CoordNBInc, "Coord_NB_INC"},
	{IndepInc, "Indep_INC"},
	{CICInc, "CIC_INC"},
	{CoordNBFT, "Coord_NB_FT"},
	{CoordNBFTInc, "Coord_NB_FT_INC"},
}

// String returns the paper's name for the variant; a point that is not in
// the table prints its axes.
func (v Variant) String() string {
	for _, e := range variants {
		if e.v == v {
			return e.name
		}
	}
	type axes Variant // no String method, so %+v prints the fields
	return fmt.Sprintf("Variant%+v", axes(v))
}

// ParseVariant maps a scheme name back to its Variant. It accepts the exact
// names String produces ("Coord_NBMS", "Indep_M", "CIC", ...).
func ParseVariant(name string) (Variant, bool) {
	for _, e := range variants {
		if e.name == name {
			return e.v, true
		}
	}
	return Variant{}, false
}

// VariantNames lists every scheme name String can produce, in table order
// (for CLI discovery output).
func VariantNames() []string {
	out := make([]string, len(variants))
	for i, e := range variants {
		out[i] = e.name
	}
	return out
}

// Coordinated reports whether the variant is a coordinated scheme.
func (v Variant) Coordinated() bool { return v.Driver == DriverRounds }

// Failover reports whether the variant runs the fault-tolerant coordinated
// protocol: a pre-commit phase plus heartbeat monitoring and coordinator
// election.
func (v Variant) Failover() bool { return v.ThreePhase }

// MemBuffered reports whether the variant uses main-memory checkpointing.
func (v Variant) MemBuffered() bool { return v.Write == WriteMemCopy || v.Write == WriteMemStagger }

// CommunicationInduced reports whether the variant belongs to the CIC family.
func (v Variant) CommunicationInduced() bool { return v.Driver == DriverInduced }

// Incremental reports whether the variant writes base+delta checkpoint
// chains instead of full images.
func (v Variant) Incremental() bool { return v.Capture == CaptureIncremental }

// RawImage reports whether the variant's checkpoint file is the bare padded
// image rather than a record: a full-image coordinated round's slot file,
// whose size is the payload's and which names no index (the commit record
// says which round a slot holds).
func (v Variant) RawImage() bool { return v.Coordinated() && !v.Incremental() }

// Options configure a scheme instance.
type Options struct {
	// Interval between checkpoints. For coordinated schemes the coordinator
	// initiates the next round Interval after the previous round committed;
	// for independent schemes each node arms its next local timer Interval
	// after its previous checkpoint completed (which is what makes
	// initially synchronized independent timers drift apart).
	Interval sim.Duration

	// FirstAt is the time of the first checkpoint; zero means Interval.
	FirstAt sim.Duration

	// MaxCheckpoints caps the number of rounds (coordinated) or per-node
	// checkpoints (independent); zero means unlimited.
	MaxCheckpoints int

	// StartRound offsets coordinated round numbering; recovery uses it so a
	// restarted scheme's rounds continue after the recovered one.
	StartRound int

	// Spread staggers independent checkpointing deliberately: node k's first
	// timer fires at FirstAt + k*Spread. Interleaved checkpoints are the
	// classic domino-effect construction; a spread can also be used as a
	// poor man's staggering optimization. Ignored by coordinated schemes
	// (they stagger via the NBMS token ring).
	Spread sim.Duration

	// StartIndices, when non-nil, gives each rank's initial checkpoint index
	// for independent and CIC schemes; rank r's next checkpoint is written
	// at index StartIndices[r]+1. Recovery from a rollback line uses it so
	// the restarted scheme never reuses an index: checkpoint files are
	// written append-only, so reusing the index of a deleted (rolled-back)
	// checkpoint would be a correctness bug even though the path is free
	// again. Ignored by coordinated schemes (they continue via StartRound).
	StartIndices []int
}

func (o Options) firstAt() sim.Duration {
	if o.FirstAt > 0 {
		return o.FirstAt
	}
	return o.Interval
}

// Dep records that during the checkpoint interval being closed, this node
// consumed a message sent by SrcRank during its interval SrcIndex.
type Dep struct {
	SrcRank  int
	SrcIndex uint64
}

// Record describes one durably committed checkpoint.
type Record struct {
	Rank       int
	Index      int // round number (coordinated) or per-node index (independent)
	At         sim.Time
	StateBytes int
	ChanBytes  int
	Deps       []Dep // independent only: receive edges of the closed interval

	// Prev is the chain pointer of an incremental checkpoint: 0 for a full
	// base image, else the index of the durable checkpoint this delta was
	// encoded against (real indices start at 1). Always 0 for full-image
	// variants.
	Prev int
}

// Stats aggregates a scheme's activity over a run.
type Stats struct {
	Checkpoints  int   // per-process checkpoints durably completed
	Rounds       int   // committed global rounds (coordinated only)
	StateBytes   int64 // checkpoint state written to stable storage
	ChanBytes    int64 // logged channel state written
	ProtoMsgs    int64 // control messages (requests, markers, acks, commits, tokens)
	ProtoBytes   int64
	AppBlocked   sim.Duration   // total application block time due to checkpointing
	MemCopyTime  sim.Duration   // portion of AppBlocked spent in memory copies
	RoundLatency []sim.Duration // coordinated: initiation -> commit per round
	LogBytesPeak int64          // IndepLog: peak volatile sender-log occupancy

	// CIC family only. ForcedCkpts counts checkpoints induced by message
	// delivery (a subset of Checkpoints; the rest are basic timer
	// checkpoints). FinalCkpts counts termination checkpoints taken at
	// application exit — they complete after the measured execution time and
	// are excluded from Checkpoints so overhead normalization is not skewed.
	ForcedCkpts int
	FinalCkpts  int

	// Failover counters, non-zero only for the fault-tolerant coordinated
	// variants under a coordinator crash. Elections counts takeover
	// announcements (heartbeat-silence timers that fired); RoundsAdopted
	// counts in-flight rounds a successor coordinator completed on behalf of
	// the failed one (aborted resolutions count under RoundsAborted).
	Elections     int
	RoundsAdopted int

	// Fault-degradation counters, non-zero only under injected faults.
	// RoundsAborted counts coordinated 2PC rounds aborted after a
	// participant's durable write failed through its retry budget; each
	// aborted round is retried with the same round number after a backoff.
	// SkippedCkpts counts independent/CIC checkpoints abandoned because
	// stable storage stayed unavailable; their dependency edges carry over
	// to the node's next checkpoint so recovery lines remain correct.
	RoundsAborted int
	SkippedCkpts  int
}

// Scheme is a checkpointing protocol attached to a machine.
type Scheme interface {
	// Name returns the paper's scheme name.
	Name() string
	// Variant returns the scheme's variant.
	Variant() Variant
	// Attach installs hooks, daemons and timers on the machine. It must be
	// called before application processes start exchanging messages.
	Attach(m *par.Machine)
	// Stop cancels future checkpoints (in-flight rounds finish).
	Stop()
	// Stats returns a snapshot of the scheme's counters.
	Stats() Stats
	// Records lists the durably completed checkpoints, oldest first.
	Records() []Record
	// EnqueueJob runs work on a node's checkpointer daemon, which owns the
	// node's storage-reply mailbox (recovery reads, package rdg's deletes).
	EnqueueJob(rank int, job func(p *sim.Proc))
	// SetCommitHook arms the correctness oracle's hook; nil (the default) is
	// the zero-cost disarmed state.
	SetCommitHook(CommitHook)
}

// CommitHook observes checkpoints at the instant they become durably
// committed: one whole round per call for coordinated schemes (fired right
// after the round record's durable write — the 2PC commit point), one
// record per call for independent and CIC schemes (fired when the
// checkpoint file's final segment is durable). The hook runs synchronously
// in the committing daemon's context and must not block or consume
// simulated time; the correctness oracle (package check) uses it to audit
// stable storage against the protocol's claims at every commit point.
type CommitHook func(committed []Record)

// New constructs a scheme for the variant, which must be one of the opened
// points: the rest of the grid is legal but has no soundness argument under
// the oracle yet, so it is refused rather than run unexamined.
func New(v Variant, opt Options) Scheme {
	if _, ok := ParseVariant(v.String()); !ok {
		panic(fmt.Sprintf("ckpt: %v is not an opened scheme (want one of %v)", v, VariantNames()))
	}
	if v.Coordinated() {
		return newCoordinated(v, opt)
	}
	return newLocalTimers(v, opt)
}

// Wire sizes of protocol control messages (bytes, excluding the fabric's
// per-message header).
const (
	sizeCtl = 16 // request, marker, ack, commit, token
)

// Control message payloads (delivered to PortDaemon and intercepted by the
// node delivery hook). Coordinated messages carry the round's Attempt
// generation: an aborted round is retried under the same round number (slot
// parity must not advance past the committed round) with a bumped attempt,
// and stale traffic from the aborted attempt is filtered by comparing it.
type (
	msgCkptReq struct {
		Round   int
		Attempt int
	}
	msgMarker struct {
		Round   int
		Attempt int
		From    int
	}
	msgAck struct {
		Round   int
		Attempt int
		From    int
	}
	msgCommit struct {
		Round   int
		Attempt int
	}
	msgToken struct {
		Round   int
		Attempt int
	}
	// msgNack reports a participant's durable-write failure (retries
	// exhausted) to the coordinator, which aborts and later retries the
	// round.
	msgNack struct {
		Round   int
		Attempt int
		From    int
	}
	// msgAbort cancels an in-flight round attempt on a participant: round
	// state is discarded, quarantined messages are released, and blocked
	// application processes resume.
	msgAbort struct {
		Round   int
		Attempt int
	}
	// msgLogTrunc lets a checkpointed receiver truncate its senders' message
	// logs: everything it consumed before the checkpoint can never be
	// re-requested.
	msgLogTrunc struct {
		From int
		UpTo uint64
	}
	// msgPreCommit is the fault-tolerant variants' third phase: broadcast by
	// the coordinator only after EVERY ack, so a participant that receives
	// it holds proof that all n ranks' round files are durable — the fact a
	// successor coordinator needs to finish the round without the failed
	// coordinator's memory.
	msgPreCommit struct {
		Round   int
		Attempt int
	}
	// msgPreAck confirms a participant recorded the pre-commit; the
	// coordinator durably writes the round record (the commit point) only
	// after every pre-ack, which makes "no participant pre-committed" imply
	// "the round record was never written" — the abort side of the
	// successor's termination rule.
	msgPreAck struct {
		Round   int
		Attempt int
		From    int
	}
	// msgHeartbeat is the acting coordinator's periodic liveness signal.
	msgHeartbeat struct {
		From int
	}
	// msgElect announces a takeover: the sender's heartbeat-silence timer
	// expired, so it becomes acting coordinator. Receivers redirect their
	// protocol traffic to it and answer with their round state.
	msgElect struct {
		From int
	}
	// msgElectAck is a survivor's answer to msgElect: its view of the
	// in-flight round, whether it acked (own files durable) and whether it
	// saw pre-commit (everyone's files durable). The successor resolves the
	// round from these votes after electWait.
	msgElectAck struct {
		From         int
		Round        int
		Attempt      int
		Acked        bool
		Precommitted bool
	}
)

// Durable layout, keyed by the variant. Coordinated rounds rotate over slot
// directories so that every write after the first rotation overwrites an
// existing file (no directory-update cost) and storage holds a bounded number
// of rounds — the paper's low storage overhead. Full-image rounds
// double-buffer two slots; the round record names the committed round and
// the slot follows from its parity. Incremental rounds rotate over
// BaseEvery+1 slots under their own root, which is what makes overwriting
// safe without garbage collection: the chain of the latest committed round r
// reaches back at most to round r-(BaseEvery-1), while writing round r+1
// overwrites the slot of round r-BaseEvery — strictly below any chain member
// a recovery could need, even while the tentative round is in flight. The
// local-timer families keep one append-only file per (node, index); indices
// can be sparse because skipped and forced checkpoints jump.
//
// StorageRoot is the directory prefix every checkpoint file of the variant
// lives under.
func (v Variant) StorageRoot() string {
	switch {
	case v.Driver == DriverTimers:
		return "indep/"
	case v.Driver == DriverInduced:
		return "cic/"
	case v.Incremental():
		return "coordinc/"
	}
	return "coord/"
}

func (v Variant) slots() int {
	if v.Incremental() {
		return BaseEvery + 1
	}
	return 2
}

// StatePath is the stable-storage path of rank's checkpoint index (the round
// number for coordinated variants). The correctness oracle (package check)
// audits and reclaims checkpoint files through it, SlotDir and ParsePath,
// and the garbage collector (package rdg) reclaims them; reading one back is
// the Replayer's.
func (v Variant) StatePath(rank, index int) string {
	if v.Coordinated() {
		return fmt.Sprintf("%ss%03d", v.SlotDir(index), rank)
	}
	return fmt.Sprintf("%sn%03d/k%05d", v.StorageRoot(), rank, index)
}

// ChanPath is the stable-storage path of rank's channel log of a coordinated
// round.
func (v Variant) ChanPath(rank, round int) string {
	return fmt.Sprintf("%sc%03d", v.SlotDir(round), rank)
}

// SlotDir is the directory, with its trailing slash, of the slot a
// coordinated round's files are written to: every path under it belongs to
// the round the slot holds, whatever its name.
func (v Variant) SlotDir(round int) string {
	return fmt.Sprintf("%sslot%d/", v.StorageRoot(), round%v.slots())
}

// ParsePath reads StatePath and ChanPath backwards: the rank and index a path
// of the variant names. A coordinated round's path holds only its slot — the
// round modulo the slot count — so for those, state file and channel log
// alike, index is the slot, which StatePath and ChanPath map back to the same
// path. ok is false for any other path: the coordinator's round record,
// another variant's files, anything not spelled exactly as the two spell it.
func (v Variant) ParsePath(path string) (rank, index int, ok bool) {
	dir, file, found := strings.Cut(strings.TrimPrefix(path, v.StorageRoot()), "/")
	d, errD := strconv.Atoi(strings.TrimLeft(dir, "nslot")) // n%03d or slot%d
	f, errF := strconv.Atoi(strings.TrimLeft(file, "ksc"))  // k%05d, s%03d or c%03d
	rank, index = d, f
	if v.Coordinated() {
		rank, index = f, d
	}
	ok = found && errD == nil && errF == nil && rank >= 0 && index >= 0 &&
		(path == v.StatePath(rank, index) || v.Coordinated() && path == v.ChanPath(rank, index))
	return rank, index, ok
}

// CoordMetaPath is the coordinator's durable round record; writing it is the
// commit point of the two-phase protocol.
const CoordMetaPath = "coord/meta"

// writeSegment is the RPC granularity of checkpoint writes: the checkpointer
// streams a file to stable storage as a pipeline of append requests (all but
// the last fire-and-forget), so the network transfer of later segments
// overlaps the disk service of earlier ones — how a real checkpoint writer's
// write() loop behaves over a file server.
const writeSegment = 64 * 1024

// segmentFile cuts file — a checkpoint file as the list of slices whose
// concatenation it is — into the requests that stream it to path, and hands
// each to send in order, last marking the final one: one durable append per
// writeSegment bytes of the concatenation, wherever the slice boundaries
// fall. A segment that straddles slices is gathered into the request (Data,
// then More), not joined; the slices are lent to the requests, never written.
// An empty file is one empty write, which is what creates it.
func segmentFile(path string, file [][]byte, send func(req storage.Request, last bool)) {
	size := fileLen(file)
	if size == 0 {
		send(storage.Request{Op: storage.OpWrite, Path: path, Durable: true}, true)
		return
	}
	part, off := 0, 0 // the next unsent byte is file[part][off]
	for sent := 0; sent < size; {
		req := storage.Request{Op: storage.OpAppend, Path: path, Durable: true}
		need := min(writeSegment, size-sent)
		sent += need
		for need > 0 {
			if off == len(file[part]) {
				part, off = part+1, 0
				continue
			}
			piece := file[part][off:min(off+need, len(file[part]))]
			if req.Data == nil {
				req.Data = piece
			} else {
				req.More = append(req.More, piece)
			}
			off += len(piece)
			need -= len(piece)
		}
		send(req, sent == size)
	}
}

// writeSegmentedOnce streams file durably to path from the node's daemon in
// one attempt. When reset is true any previous content at path (a reused
// slot file) is removed first. The final request is synchronous: FIFO
// request ordering makes its reply a barrier confirming every segment is
// durable, and it is verified error-free and of the expected durable size. A fire-and-
// forget segment failed by an injected fault leaves the file short, which
// the size check surfaces; a lost reply surfaces as a timeout under the
// machine's retry policy (no timeout under the zero policy — the unarmed
// path is byte-identical to the original pipeline).
func writeSegmentedOnce(p *sim.Proc, n *par.Node, path string, file [][]byte, reset bool) error {
	if reset {
		n.StorageSend(p, storage.Request{Op: storage.OpDelete, Path: path})
	}
	var err error
	segmentFile(path, file, func(req storage.Request, last bool) {
		if !last {
			n.StorageSend(p, req)
			return
		}
		reply, _ := n.StorageCallTimeoutOn(p, n.Shard(), req, n.M.Retry.Timeout)
		err = reply.Err
		if size := fileLen(file); err == nil && reply.Size != size {
			err = fmt.Errorf("%w: short write of %s: %d of %d bytes durable",
				storage.ErrUnavailable, path, reply.Size, size)
		}
	})
	return err
}

// writeSegmentedChecked is the hardened write pipeline: each verified
// attempt that fails is retried from scratch (the slot is reset so partial
// content cannot survive) with capped, jittered backoff under the machine's
// retry policy. It returns the last error once attempts are exhausted; under
// the zero policy a single attempt is made.
func writeSegmentedChecked(p *sim.Proc, n *par.Node, path string, file [][]byte, reset bool) error {
	var err error
	n.WithRetry(p, func(attempt int) bool {
		err = writeSegmentedOnce(p, n, path, file, reset || attempt > 0)
		return err == nil
	})
	return err
}
