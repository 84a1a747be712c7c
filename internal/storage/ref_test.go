package storage

import (
	"errors"
	"sort"

	"repro/internal/sim"
)

// refServer is the storage server as it was before files became extent
// lists: every file one flat []byte that OpAppend re-grows with append, and
// Occupied a walk over the durable area. It is kept compiled as the reference
// the differential test and FuzzStorageOps drive next to Server; the cost
// model and the order of sleeps, fault-free, are the server's own.
type refServer struct {
	cfg   Config
	reqs  *sim.Mailbox[Request]
	tmp   map[string][]byte
	files map[string][]byte

	bytesWritten, bytesRead, reqCount, peakOccupied int64
	busy                                            sim.Duration
}

func newRefServer(eng *sim.Engine, cfg Config) *refServer {
	s := &refServer{
		cfg:   cfg,
		reqs:  sim.NewMailbox[Request](eng),
		tmp:   make(map[string][]byte),
		files: make(map[string][]byte),
	}
	eng.Spawn("ref-storage-server", s.serve).SetDaemon(true)
	return s
}

func (s *refServer) Submit(req Request) { s.reqs.Put(req) }

func (s *refServer) serve(p *sim.Proc) {
	for {
		req := s.reqs.GetAny(p)
		s.reqCount++
		start := p.Now()
		reply := s.apply(p, req)
		s.busy += p.Now().Sub(start)
		if req.Done != nil {
			req.Done(reply)
		}
	}
}

func (s *refServer) apply(p *sim.Proc, req Request) Reply {
	switch req.Op {
	case OpWrite, OpRead:
		p.Sleep(s.cfg.ReqOverhead)
	case OpAppend:
		p.Sleep(s.cfg.AppendOverhead)
	default:
		p.Sleep(s.cfg.MetaOverhead)
	}
	switch req.Op {
	case OpWrite, OpAppend:
		area := s.tmp
		if req.Durable {
			area = s.files
		}
		if _, exists := area[req.Path]; !exists {
			p.Sleep(s.cfg.CreateOverhead)
		}
		p.Sleep(sim.BytesAt(len(req.Data), s.cfg.WriteBandwidth))
		s.bytesWritten += int64(len(req.Data))
		if req.Op == OpAppend {
			area[req.Path] = append(area[req.Path], req.Data...)
		} else {
			area[req.Path] = append([]byte(nil), req.Data...)
		}
		s.notePeak()
		return Reply{Size: len(area[req.Path])}
	case OpCommit:
		data, ok := s.tmp[req.Path]
		if !ok {
			return Reply{Err: ErrNotFound}
		}
		delete(s.tmp, req.Path)
		s.files[req.Path] = data
		s.notePeak()
		return Reply{Size: len(data)}
	case OpRead:
		data, ok := s.files[req.Path]
		if !ok {
			return Reply{Err: ErrNotFound}
		}
		p.Sleep(sim.BytesAt(len(data), s.cfg.ReadBandwidth))
		s.bytesRead += int64(len(data))
		return Reply{Data: data, Size: len(data)}
	case OpDelete:
		delete(s.tmp, req.Path)
		delete(s.files, req.Path)
		return Reply{}
	}
	return Reply{Err: errors.New("storage: unknown op")}
}

func (s *refServer) notePeak() {
	if occ := s.Occupied(); occ > s.peakOccupied {
		s.peakOccupied = occ
	}
}

func (s *refServer) Crash() { s.tmp = make(map[string][]byte) }

func (s *refServer) Occupied() int64 {
	var n int64
	for _, d := range s.files {
		n += int64(len(d))
	}
	return n
}

func (s *refServer) PeakOccupied() int64 { return s.peakOccupied }

func (s *refServer) Stats() (reqs, written, read int64, busy sim.Duration) {
	return s.reqCount, s.bytesWritten, s.bytesRead, s.busy
}

func (s *refServer) Peek(path string, buf []byte) ([]byte, bool) {
	data, ok := s.files[path]
	return append(buf[:0], data...), ok
}

func (s *refServer) Size(path string) (int, bool) {
	data, ok := s.files[path]
	return len(data), ok
}

func (s *refServer) DurablePaths() []string {
	paths := make([]string, 0, len(s.files))
	for path := range s.files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	return paths
}
