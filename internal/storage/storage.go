// Package storage simulates the stable-storage server: the host machine's
// file system that all nodes of the multicomputer share (on the paper's
// testbed, a SunSparc reached through the host link).
//
// The server is a single simulated process draining a FIFO request queue, so
// concurrent checkpoint writes from many nodes queue up — the stable-storage
// contention at the heart of the paper's results. Files written with
// Durable=false land in a temporary area and are lost on Crash unless
// committed; Commit moves one atomically into the durable area. The
// checkpointing protocols write durably from the start: the coordinated
// two-phase commit's commit point is the durable write of its round record,
// not a Commit.
package storage

import (
	"bytes"
	"errors"
	"slices"
	"sort"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Op selects a request operation.
type Op int

// Request operations.
const (
	OpWrite  Op = iota // store Data at Path (tmp area unless Durable)
	OpAppend           // append Data to Path (same durability rule)
	OpCommit           // atomically move Path from tmp to durable
	OpRead             // read durable Path
	OpDelete           // delete Path from both areas
)

// ErrNotFound is returned for reads and commits of missing paths.
var ErrNotFound = errors.New("storage: file not found")

// ErrUnavailable is the transient-failure class: the fault-injection layer
// wraps every injected storage error in it, and the retrying client re-issues
// only requests that failed this way (ErrNotFound and friends are definitive
// answers, not faults).
var ErrUnavailable = errors.New("storage: server unavailable")

// Request is one stable-storage operation. Done, if non-nil, is invoked in
// server-process context when the operation completes.
//
// The payload of a write or append is Data followed by the slices of More: a
// submitter whose bytes live in several buffers (a snapshot, a run of the
// shared zero page, a header) hands them over as they are instead of joining
// them first. The server keeps what it is handed — the slices themselves
// become the file's extents — so from Submit on a submitter never writes
// those bytes again, whether or not it waits for the reply: a timed-out call
// leaves a request the server still serves later. Reading them, and handing
// the same bytes to other requests, stays lawful for everyone.
type Request struct {
	Op      Op
	Path    string
	Data    []byte
	More    [][]byte // the rest of a gathered payload, after Data
	Durable bool     // for OpWrite/OpAppend: bypass the tmp area
	Done    func(Reply)
}

// Len is the payload's size, Data and More together: what the request weighs
// on the fabric and what the server charges for and stores.
func (r Request) Len() int {
	n := len(r.Data)
	for _, part := range r.More {
		n += len(part)
	}
	return n
}

// Reply carries the result of a request. Data on a read reply borrows the
// server's durable blob — callers must treat it as read-only (a stored extent
// is never written after it is installed, so the borrow can never go stale).
type Reply struct {
	Err  error
	Data []byte
	Size int
}

// Config sets the cost model of the storage server.
type Config struct {
	ReqOverhead    sim.Duration // per data-request fixed cost (seek, protocol)
	AppendOverhead sim.Duration // per-request cost of sequential appends (no seek)
	MetaOverhead   sim.Duration // fixed cost of metadata ops (commit, delete)
	CreateOverhead sim.Duration // extra cost of a write that creates a new file (directory update)
	WriteBandwidth float64      // bytes/s
	ReadBandwidth  float64      // bytes/s
}

// file is one stored blob, held as the extents it arrived in: OpWrite and
// OpAppend install each non-empty slice of their payload as an extent, capped
// at its length, and no request moves or modifies an extent afterwards — so a
// checkpoint streamed in 64 KiB appends is not copied at all on its way in,
// and a read borrow stays valid whatever happens to the file later.
type file struct {
	extents [][]byte
	size    int
}

// keep installs part as the file's next extent, capped at its length: whatever
// spare capacity the submitter's buffer has is out of the file's reach.
func (f *file) keep(part []byte) {
	if len(part) > 0 {
		f.extents = append(f.extents, part[:len(part):len(part)])
		f.size += len(part)
	}
}

// blob returns the whole file as one slice. The first call on a file of
// several extents joins them and keeps the joined slice as the only extent; a
// later append starts a new extent behind it rather than growing it in place.
func (f *file) blob() []byte {
	if len(f.extents) > 1 {
		f.extents = [][]byte{bytes.Join(f.extents, nil)}
	}
	if len(f.extents) == 0 {
		return nil
	}
	return f.extents[0]
}

// Server is the stable-storage host process.
type Server struct {
	eng   *sim.Engine
	cfg   Config
	reqs  *sim.Mailbox[Request]
	tmp   map[string]*file
	files map[string]*file

	// statistics
	bytesWritten int64
	bytesRead    int64
	reqCount     int64
	busy         sim.Duration
	occupied     int64 // bytes in the durable area, kept current by occupy
	peakOccupied int64

	// observability (nil obs disables everything)
	obs    *obs.Observer
	obsPid int        // trace pid of the host machine
	queued []sim.Time // submit times of queued requests, parallel to reqs

	// FaultHook, when set, is consulted after a request's fixed overhead (the
	// seek/protocol attempt) and before any data transfer or mutation; a
	// non-nil error fails the request without touching either file area.
	// Injected errors should wrap ErrUnavailable so the retrying client can
	// tell them from definitive failures. Installed by the fault-injection
	// layer; nil — the default — leaves the server fault-free.
	FaultHook func(op Op, path string) error
}

// New creates the server and spawns its service process on eng.
func New(eng *sim.Engine, cfg Config) *Server {
	s := &Server{
		eng:   eng,
		cfg:   cfg,
		reqs:  sim.NewMailbox[Request](eng),
		tmp:   make(map[string]*file),
		files: make(map[string]*file),
	}
	eng.Spawn("storage-server", s.serve).SetDaemon(true)
	return s
}

// SetObserver installs the observability sink; pid is the trace pid of the
// host machine. Call before the simulation starts.
func (s *Server) SetObserver(o *obs.Observer, pid int) {
	s.obs = o
	s.obsPid = pid
}

// Submit enqueues a request; it never blocks the caller. The payload's bytes
// are the server's from here on (see Request).
func (s *Server) Submit(req Request) {
	if s.obs.Enabled() {
		s.queued = append(s.queued, s.eng.Now())
	}
	s.reqs.Put(req)
}

func (s *Server) serve(p *sim.Proc) {
	for {
		req := s.reqs.GetAny(p)
		s.reqCount++
		if s.obs.Enabled() && len(s.queued) > 0 {
			// Requests are consumed FIFO, so the oldest submit time is this
			// request's: the difference is its wait in the server queue.
			s.obs.ObserveDur(s.obsPid, "storage.queue_wait", p.Now().Sub(s.queued[0]))
			s.queued = s.queued[1:]
		}
		start := p.Now()
		sp := s.obs.Start(s.obsPid, obs.TidDaemon, opSpanName(req.Op))
		reply := s.apply(p, req)
		sp.End()
		s.busy += p.Now().Sub(start)
		if s.obs.Enabled() {
			switch req.Op {
			case OpWrite, OpAppend:
				s.obs.Add(s.obsPid, "storage.bytes_written", int64(req.Len()))
			case OpRead:
				s.obs.Add(s.obsPid, "storage.bytes_read", int64(len(reply.Data)))
			}
			s.obs.Add(s.obsPid, "storage.requests", 1)
			s.obs.Gauge(s.obsPid, "storage.occupied_bytes", float64(s.Occupied()))
		}
		if req.Done != nil {
			req.Done(reply)
		}
	}
}

// opSpanName maps a request op to its trace span name.
func opSpanName(op Op) string {
	switch op {
	case OpWrite:
		return "storage.write"
	case OpAppend:
		return "storage.append"
	case OpRead:
		return "storage.read"
	case OpCommit:
		return "storage.commit"
	case OpDelete:
		return "storage.delete"
	}
	return "storage.op"
}

func (s *Server) apply(p *sim.Proc, req Request) Reply {
	switch req.Op {
	case OpWrite, OpRead:
		p.Sleep(s.cfg.ReqOverhead)
	case OpAppend:
		p.Sleep(s.cfg.AppendOverhead)
	default:
		p.Sleep(s.cfg.MetaOverhead)
	}
	if s.FaultHook != nil {
		if err := s.FaultHook(req.Op, req.Path); err != nil {
			return Reply{Err: err}
		}
	}
	switch req.Op {
	case OpWrite, OpAppend:
		area := s.tmp
		if req.Durable {
			area = s.files
		}
		f := area[req.Path]
		if f == nil {
			p.Sleep(s.cfg.CreateOverhead) // directory update for a new file
		}
		size := req.Len()
		p.Sleep(sim.BytesAt(size, s.cfg.WriteBandwidth))
		s.bytesWritten += int64(size)
		// area was read before the sleeps, so a write in service across a
		// Crash lands in the orphaned tmp map and is lost with it.
		grown := size
		if f == nil {
			f = new(file)
			area[req.Path] = f
		} else if req.Op == OpWrite {
			grown -= f.size
			*f = file{}
		}
		f.keep(req.Data)
		for _, part := range req.More {
			f.keep(part)
		}
		if req.Durable {
			s.occupy(grown)
		}
		return Reply{Size: f.size}
	case OpCommit:
		f, ok := s.tmp[req.Path]
		if !ok {
			return Reply{Err: ErrNotFound}
		}
		delete(s.tmp, req.Path)
		old, _ := s.Size(req.Path)
		s.occupy(f.size - old)
		s.files[req.Path] = f
		return Reply{Size: f.size}
	case OpRead:
		f, ok := s.files[req.Path]
		if !ok {
			return Reply{Err: ErrNotFound}
		}
		p.Sleep(sim.BytesAt(f.size, s.cfg.ReadBandwidth))
		s.bytesRead += int64(f.size)
		// The reply borrows the durable blob instead of copying it: OpWrite
		// starts a fresh extent list, OpAppend adds extents behind those
		// already there, and neither touches an extent once stored — so readers
		// holding the borrow stay consistent no matter what later requests do.
		return Reply{Data: f.blob(), Size: f.size}
	case OpDelete:
		delete(s.tmp, req.Path)
		old, _ := s.Size(req.Path)
		s.occupy(-old)
		delete(s.files, req.Path)
		return Reply{}
	}
	return Reply{Err: errors.New("storage: unknown op")}
}

// occupy records that the durable area grew by n bytes (shrank, if negative).
func (s *Server) occupy(n int) {
	s.occupied += int64(n)
	if s.occupied > s.peakOccupied {
		s.peakOccupied = s.occupied
	}
}

// Crash models a failure of the computing system: everything not committed
// to the durable area is discarded. (The durable area itself is stable
// storage and survives by definition.)
func (s *Server) Crash() { s.tmp = make(map[string]*file) }

// Occupied returns the bytes currently held in the durable area.
func (s *Server) Occupied() int64 { return s.occupied }

// PeakOccupied returns the maximum durable occupancy observed.
func (s *Server) PeakOccupied() int64 { return s.peakOccupied }

// Stats returns cumulative request count, bytes written/read and busy time.
func (s *Server) Stats() (reqs, written, read int64, busy sim.Duration) {
	return s.reqCount, s.bytesWritten, s.bytesRead, s.busy
}

// QueueLen returns the number of requests waiting for service.
func (s *Server) QueueLen() int { return s.reqs.Len() }

// NumFiles returns the number of durable files.
func (s *Server) NumFiles() int { return len(s.files) }

// Peek appends the durable contents of path to buf[:0] and returns the result,
// without consuming simulated time or passing through the request queue. It
// exists for the correctness oracle (package check) and tests: invariant
// checks must inspect the durable area exactly as a post-crash recovery would
// see it, but must not perturb the schedule of the run being checked — nor
// the server: unlike a read, a peek copies the extents out and leaves the file
// as it found it. The copy is the caller's, valid until it peeks into the same
// buffer again.
func (s *Server) Peek(path string, buf []byte) ([]byte, bool) {
	f, ok := s.files[path]
	if !ok {
		return buf[:0], false
	}
	buf = slices.Grow(buf[:0], f.size)
	for _, e := range f.extents {
		buf = append(buf, e...)
	}
	return buf, true
}

// Size returns the size of durable path, at Peek's (zero) cost.
func (s *Server) Size(path string) (int, bool) {
	f, ok := s.files[path]
	if !ok {
		return 0, false
	}
	return f.size, true
}

// DurablePaths returns the sorted paths of the durable area (test and
// diagnostic helper: asserting that an aborted round left no partial state).
func (s *Server) DurablePaths() []string {
	paths := make([]string, 0, len(s.files))
	for path := range s.files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	return paths
}
