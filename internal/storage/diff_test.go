package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/sim"
)

// store is what the differential drives: Server and refServer.
type store interface {
	Submit(Request)
	Crash()
	Occupied() int64
	PeakOccupied() int64
	Stats() (reqs, written, read int64, busy sim.Duration)
	DurablePaths() []string
	Peek(path string, buf []byte) ([]byte, bool)
	Size(path string) (int, bool)
}

// diffPaths collide on purpose: few names, one a prefix of two others, so
// writes, appends, commits and deletes keep landing on files that exist in one
// area, both or neither, and OpList has prefixes that match some and not all.
var diffPaths = []string{"a", "a/b", "a/c", "d"}

// diffConfig makes every phase of a request long enough for a delayed Crash to
// land inside it: before the create, in the transfer, after the reply.
func diffConfig() Config {
	return Config{
		ReqOverhead:    400 * sim.Microsecond,
		AppendOverhead: 100 * sim.Microsecond,
		MetaOverhead:   50 * sim.Microsecond,
		CreateOverhead: 200 * sim.Microsecond,
		WriteBandwidth: 10e6,
		ReadBandwidth:  20e6,
	}
}

// observation is everything the outside can see when a request completes.
type observation struct {
	Step                int
	At                  sim.Time
	Err, Data           string
	Paths               []string
	Size                int
	Reqs, Written, Read int64
	Busy                sim.Duration
	Occupied, Peak      int64
	Durable             []string
	Peeks               []string // of every diffPaths entry, on the steps that look
}

// borrow is a read reply's Data and what every byte of its backing array up to
// its capacity held when the reply arrived.
type borrow struct {
	step       int
	data, snap []byte
}

// handed is one buffer a payload was cut from — the payload, then spare
// capacity behind it — and what all of it held when it was submitted.
type handed struct {
	step      int
	buf, snap []byte
}

// diffPayload makes step's payload of n bytes at the front of a buffer with
// spare capacity behind it, every byte of both non-zero.
func diffPayload(step, n int) []byte {
	buf := make([]byte, n+1+step%7)
	for i := range buf {
		buf[i] = byte(step*31+i)%251 + 1
	}
	return buf[:n]
}

// gather cuts payload into a request's Data and More as shape (four bits)
// says: up to three cuts at places drawn from the payload's length, Data left
// empty, an empty slice in the middle of More. Joined, the request is payload.
func gather(req *Request, payload []byte, shape byte) {
	cuts := []int{0}
	for i := 1; i <= int(shape&3); i++ {
		cuts = append(cuts, (len(payload)*i*37/100+i*i)%(len(payload)+1))
	}
	slices.Sort(cuts)
	cuts = append(cuts, len(payload))
	var parts [][]byte
	for i := 1; i < len(cuts); i++ {
		parts = append(parts, payload[cuts[i-1]:cuts[i]])
	}
	if shape&8 != 0 {
		parts = slices.Insert(parts, len(parts)/2+1, payload[:0])
	}
	if shape&4 != 0 {
		req.More = parts
	} else {
		req.Data, req.More = parts[0], parts[1:]
	}
}

// diffRun plays script against srv on its own engine and returns what it saw.
// Four bytes make a step: an operation, then path, durability, whether to let
// the queue drain before the next step, and how late a crash fires — or how a
// payload is cut up — then two bytes of data length, the top bit of the first
// saying that the previous payload's buffer is handed over again instead of a
// new one. A *Server gets its payloads gathered, the flat reference joined,
// and a *Server is additionally held to the ownership contract: it keeps what
// it is handed and writes none of it — not the payload, not the spare
// capacity behind it, not what a read lent out (the flat reference copies in,
// and appends in place behind a borrow, lawfully) — and audit passes.
func diffRun(t testing.TB, script []byte, mk func(*sim.Engine) store) []observation {
	t.Helper()
	eng := sim.New()
	defer eng.Shutdown()
	srv := mk(eng)
	extents, exact := srv.(*Server)
	var (
		seen        []observation
		borrows     []borrow
		submitted   []handed
		last        []byte
		outstanding int
		peekBuf     []byte
	)
	window := func(b []byte) []byte {
		if exact {
			return b[:cap(b)]
		}
		return b
	}
	observe := func(step int, peek bool, r Reply) {
		o := observation{Step: step, At: eng.Now(), Data: string(r.Data), Paths: r.Paths, Size: r.Size,
			Occupied: srv.Occupied(), Peak: srv.PeakOccupied(), Durable: srv.DurablePaths()}
		if r.Err != nil {
			o.Err = r.Err.Error()
		}
		o.Reqs, o.Written, o.Read, o.Busy = srv.Stats()
		if peek {
			// Every peek of the run goes into one scratch buffer, dirty from
			// the last; Size must agree with what Peek copied out.
			for _, path := range diffPaths {
				var ok bool
				peekBuf, ok = srv.Peek(path, peekBuf)
				if size, sok := srv.Size(path); sok != ok || size != len(peekBuf) {
					t.Fatalf("step %d: Size(%q) = %d, %v; Peek copied %d bytes, %v", step, path, size, sok, len(peekBuf), ok)
				}
				if ok {
					o.Peeks = append(o.Peeks, "="+string(peekBuf))
				} else {
					o.Peeks = append(o.Peeks, "-")
				}
			}
		}
		seen = append(seen, o)
		if exact {
			if err := extents.audit(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		for _, b := range borrows {
			if !bytes.Equal(window(b.data), b.snap) {
				t.Fatalf("step %d: the bytes borrowed by the read at step %d changed", step, b.step)
			}
		}
		if r.Data != nil {
			borrows = append(borrows, borrow{step, r.Data, bytes.Clone(window(r.Data))})
		}
	}
	eng.Spawn("driver", func(p *sim.Proc) {
		drain := func() {
			for outstanding > 0 {
				p.Sleep(30 * sim.Microsecond)
			}
		}
		for step := 0; (step+1)*4 <= len(script); step++ {
			s := script[step*4 : step*4+4]
			req := Request{Path: diffPaths[s[1]&3], Durable: s[1]&4 != 0}
			switch op := s[0] % 12; op {
			case 0, 1:
				req.Op = OpWrite
			case 2, 3, 4:
				req.Op = OpAppend
			case 5:
				req.Op = OpCommit
			case 6:
				req.Op = OpRead
			case 7:
				req.Op = OpDelete
			case 8:
				req.Op = OpList
			case 9:
				req.Op = OpStat
			default:
				// Crash now — between requests if the queue was drained — or
				// some way into whatever is submitted next.
				if late := sim.Duration(s[1]>>4) * 150 * sim.Microsecond; late > 0 {
					eng.After(late, srv.Crash)
				} else {
					srv.Crash()
				}
				continue
			}
			if req.Op == OpWrite || req.Op == OpAppend {
				if n := int(s[2]&0x7F)<<8 | int(s[3]); n%5 != 0 { // a fifth are zero-length
					if s[2]&0x80 == 0 || last == nil {
						last = diffPayload(step, n%5000)
						full := last[:cap(last)]
						submitted = append(submitted, handed{step, full, bytes.Clone(full)})
					}
					if exact {
						gather(&req, last, s[1]>>4)
					} else {
						req.Data = last
					}
				}
			}
			step, peek := step, s[0] >= 230
			req.Done = func(r Reply) {
				outstanding--
				observe(step, peek, r)
			}
			outstanding++
			srv.Submit(req)
			if s[1]&8 != 0 {
				drain()
			}
		}
		drain()
		observe(-1, true, Reply{})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for _, h := range submitted {
		if !bytes.Equal(h.buf, h.snap) {
			t.Fatalf("the server wrote into the buffer it was handed at step %d (payload or the capacity behind it)", h.step)
		}
	}
	return seen
}

// audit recomputes what the server keeps as running totals — each file's size
// from its extents, the durable occupancy from the files — and holds every
// extent to the cap: exactly as long as what it stores.
func (s *Server) audit() error {
	var occupied int64
	for _, area := range []map[string]*file{s.tmp, s.files} {
		for path, f := range area {
			n := 0
			for _, x := range f.extents {
				n += len(x)
				if len(x) == 0 || cap(x) != len(x) {
					// Spare capacity would let a later append land in memory
					// the file does not own; an empty extent is dead weight.
					return fmt.Errorf("%q: an extent of %d bytes with capacity %d", path, len(x), cap(x))
				}
			}
			if n != f.size {
				return fmt.Errorf("%q: size %d, extents hold %d", path, f.size, n)
			}
		}
	}
	for _, f := range s.files {
		occupied += int64(f.size)
	}
	if occupied != s.Occupied() {
		return fmt.Errorf("Occupied() = %d, durable files hold %d", s.Occupied(), occupied)
	}
	return nil
}

// diffCheck runs script on the extent server and on the flat reference and
// compares every observation.
func diffCheck(t testing.TB, script []byte) {
	t.Helper()
	got := diffRun(t, script, func(e *sim.Engine) store { return New(e, diffConfig()) })
	want := diffRun(t, script, func(e *sim.Engine) store { return newRefServer(e, diffConfig()) })
	for i := range want {
		if i >= len(got) || !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("observation %d differs\n got: %+v\nwant: %+v", i, got[min(i, len(got)-1)], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d observations, reference made %d", len(got), len(want))
	}
}

// joinThenGrow is the sequence the read borrow is most exposed to: a file of
// several extents is read (joined), appended to, read again and appended to
// again — a server that grew the joined slice in place would, on the last
// append, write into the spare capacity behind the second borrow.
var joinThenGrow = []byte{
	2, 12, 1, 1, 2, 12, 2, 2, 6, 8, 0, 0, // append, append, read
	2, 12, 0, 3, 6, 8, 0, 0, 2, 12, 0, 4, // append, read, append
	234, 8, 0, 0, // read, peeking
}

func TestStorageOpsDifferential(t *testing.T) {
	diffCheck(t, joinThenGrow)
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 300; i++ {
		script := make([]byte, 4*(16+rng.Intn(240)))
		rng.Read(script)
		diffCheck(t, script)
	}
}

func FuzzStorageOps(f *testing.F) {
	f.Add(joinThenGrow)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 4; i++ {
		script := make([]byte, 4*64)
		rng.Read(script)
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4*512 {
			script = script[:4*512]
		}
		diffCheck(t, script)
	})
}
