package storage

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/sim"
)

func testConfig() Config {
	return Config{
		ReqOverhead:    15 * sim.Millisecond,
		WriteBandwidth: 1.2e6,
		ReadBandwidth:  2.0e6,
	}
}

// do submits a request and runs the engine until the reply arrives.
func do(t *testing.T, e *sim.Engine, s *Server, req Request) Reply {
	t.Helper()
	var got Reply
	done := false
	req.Done = func(r Reply) { got = r; done = true }
	s.Submit(req)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("request not completed")
	}
	return got
}

func TestWriteCommitReadRoundTrip(t *testing.T) {
	e := sim.New()
	s := New(e, testConfig())
	data := []byte("checkpoint state v1")

	do(t, e, s, Request{Op: OpWrite, Path: "ckpt/p0.tmp", Data: data})
	if r := do(t, e, s, Request{Op: OpRead, Path: "ckpt/p0.tmp"}); !errors.Is(r.Err, ErrNotFound) {
		t.Fatalf("uncommitted file readable: %+v", r)
	}
	do(t, e, s, Request{Op: OpCommit, Path: "ckpt/p0.tmp"})
	r := do(t, e, s, Request{Op: OpRead, Path: "ckpt/p0.tmp"})
	if r.Err != nil || !bytes.Equal(r.Data, data) {
		t.Fatalf("read after commit: %+v", r)
	}
}

func TestCrashDiscardsUncommitted(t *testing.T) {
	e := sim.New()
	s := New(e, testConfig())
	do(t, e, s, Request{Op: OpWrite, Path: "a", Data: []byte("x")})
	do(t, e, s, Request{Op: OpWrite, Path: "b", Data: []byte("y"), Durable: true})
	s.Crash()
	if r := do(t, e, s, Request{Op: OpCommit, Path: "a"}); !errors.Is(r.Err, ErrNotFound) {
		t.Fatal("tmp file survived crash")
	}
	if r := do(t, e, s, Request{Op: OpRead, Path: "b"}); r.Err != nil {
		t.Fatal("durable file lost in crash")
	}
}

func TestAppendAccumulates(t *testing.T) {
	e := sim.New()
	s := New(e, testConfig())
	do(t, e, s, Request{Op: OpAppend, Path: "log", Data: []byte("aa"), Durable: true})
	do(t, e, s, Request{Op: OpAppend, Path: "log", Data: []byte("bb"), Durable: true})
	r := do(t, e, s, Request{Op: OpRead, Path: "log"})
	if string(r.Data) != "aabb" {
		t.Fatalf("append result %q", r.Data)
	}
}

func TestDeleteRemovesOnlyItsFile(t *testing.T) {
	e := sim.New()
	s := New(e, testConfig())
	do(t, e, s, Request{Op: OpWrite, Path: "ckpt/0/1", Data: []byte("111"), Durable: true})
	do(t, e, s, Request{Op: OpWrite, Path: "ckpt/1/1", Data: []byte("22"), Durable: true})
	do(t, e, s, Request{Op: OpWrite, Path: "other", Data: []byte("z"), Durable: true})

	do(t, e, s, Request{Op: OpDelete, Path: "ckpt/0/1"})
	if r := do(t, e, s, Request{Op: OpRead, Path: "ckpt/0/1"}); !errors.Is(r.Err, ErrNotFound) {
		t.Fatal("deleted file still present")
	}
	if r := do(t, e, s, Request{Op: OpRead, Path: "ckpt/1/1"}); r.Err != nil || string(r.Data) != "22" {
		t.Fatalf("delete touched a sibling: %+v", r)
	}
	if s.NumFiles() != 2 {
		t.Fatalf("NumFiles = %d", s.NumFiles())
	}
}

func TestServiceTimeModel(t *testing.T) {
	e := sim.New()
	s := New(e, testConfig())
	var doneAt sim.Time
	s.Submit(Request{Op: OpWrite, Path: "f", Data: make([]byte, 1_200_000),
		Done: func(Reply) { doneAt = e.Now() }})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.Time(15*sim.Millisecond + sim.Second) // overhead + 1.2MB @ 1.2MB/s
	if doneAt != want {
		t.Fatalf("write done at %v, want %v", doneAt, want)
	}
}

func TestFIFOQueueing(t *testing.T) {
	e := sim.New()
	s := New(e, testConfig())
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Submit(Request{Op: OpWrite, Path: fmt.Sprintf("f%d", i), Data: make([]byte, 120_000),
			Done: func(Reply) { order = append(order, i) }})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("service order %v", order)
		}
	}
	reqs, written, _, busy := s.Stats()
	if reqs != 5 || written != 600_000 {
		t.Fatalf("stats: %d reqs %d written", reqs, written)
	}
	want := sim.Duration(5)*(15*sim.Millisecond) + sim.BytesAt(600_000, 1.2e6)
	if busy != want {
		t.Fatalf("busy = %v, want %v", busy, want)
	}
}

func TestPeakOccupancy(t *testing.T) {
	e := sim.New()
	s := New(e, testConfig())
	do(t, e, s, Request{Op: OpWrite, Path: "a", Data: make([]byte, 1000), Durable: true})
	do(t, e, s, Request{Op: OpWrite, Path: "b", Data: make([]byte, 500), Durable: true})
	do(t, e, s, Request{Op: OpDelete, Path: "a"})
	if s.Occupied() != 500 {
		t.Fatalf("occupied = %d", s.Occupied())
	}
	if s.PeakOccupied() != 1500 {
		t.Fatalf("peak = %d", s.PeakOccupied())
	}
}

func TestOverwriteReplaces(t *testing.T) {
	e := sim.New()
	s := New(e, testConfig())
	do(t, e, s, Request{Op: OpWrite, Path: "f", Data: []byte("old-old-old"), Durable: true})
	do(t, e, s, Request{Op: OpWrite, Path: "f", Data: []byte("new"), Durable: true})
	r := do(t, e, s, Request{Op: OpRead, Path: "f"})
	if string(r.Data) != "new" {
		t.Fatalf("read %q", r.Data)
	}
}

// TestPeekLeavesFileAsFound: a peek copies a file's extents out and is not an
// operation on the server — the extent list (same slices, same order), the
// occupancy and the request count are what they were, whatever the scratch
// handed in; a read, by contrast, lawfully joins the extents.
func TestPeekLeavesFileAsFound(t *testing.T) {
	e := sim.New()
	defer e.Shutdown()
	s := New(e, testConfig())
	want := []byte("onetwothree")
	for _, seg := range []string{"one", "two", "three"} {
		do(t, e, s, Request{Op: OpAppend, Path: "f", Data: []byte(seg), Durable: true})
	}
	f := s.files["f"]
	extents := append([][]byte(nil), f.extents...)
	occupied, reqs := s.Occupied(), s.reqCount
	for _, buf := range [][]byte{nil, make([]byte, 0, 4), bytes.Repeat([]byte{0xFF}, 64)} {
		got, ok := s.Peek("f", buf)
		if size, sok := s.Size("f"); !ok || !sok || size != len(want) || !bytes.Equal(got, want) {
			t.Fatalf("Peek = %q, %v; Size = %d, %v", got, ok, size, sok)
		}
		if len(buf) >= len(want) && &got[0] != &buf[0] {
			t.Error("Peek allocated although the scratch had room")
		}
	}
	if got, ok := s.Peek("missing", []byte("scratch")); ok || len(got) != 0 {
		t.Fatalf("Peek of a missing file = %q, %v", got, ok)
	}
	if _, ok := s.Size("missing"); ok {
		t.Fatal("Size reports a missing file")
	}
	if len(f.extents) != len(extents) || s.files["f"] != f {
		t.Fatalf("file has %d extents after peeking, had %d", len(f.extents), len(extents))
	}
	for i := range extents {
		if &f.extents[i][0] != &extents[i][0] || len(f.extents[i]) != len(extents[i]) {
			t.Fatalf("extent %d replaced by peeking", i)
		}
	}
	if s.Occupied() != occupied || s.reqCount != reqs {
		t.Fatalf("occupied %d -> %d, requests %d -> %d across peeks", occupied, s.Occupied(), reqs, s.reqCount)
	}
	if r := do(t, e, s, Request{Op: OpRead, Path: "f"}); !bytes.Equal(r.Data, want) || len(f.extents) != 1 {
		t.Fatalf("read after peeks: %q in %d extents", r.Data, len(f.extents))
	}
}
