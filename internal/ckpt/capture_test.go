package ckpt

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/codec"
	"repro/internal/mp"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/storage"
)

// TestMain holds the package to the zero page's contract after every test has
// run — schemes, recoveries and decoders over machines that all borrowed it:
// nobody wrote a byte of it.
func TestMain(m *testing.M) {
	code := m.Run()
	if !ZeroPageIntact() {
		fmt.Fprintln(os.Stderr, "FAIL: the shared zero page was written: some holder of checkpoint file bytes is not read-only")
		code = 1
	}
	os.Exit(code)
}

// refEncodeCkptFile is the record encoder as it was while the padded image was
// materialised before the encode: f.State is the whole state section.
func refEncodeCkptFile(v Variant, f CkptFile) []byte {
	w := codec.NewWriter()
	w.Int(f.Index)
	if v.Incremental() {
		w.Int(f.Prev)
	}
	w.Int(len(f.Deps))
	for _, d := range f.Deps {
		w.Int(d.SrcRank)
		w.U64(d.SrcIndex)
	}
	w.Bytes8(f.State)
	w.Bytes8(f.Lib)
	return w.Bytes()
}

// padImage is the padded process image as captures materialised it before
// files were gathered: the reference the gathered files are held to.
func padImage(state []byte, imageBytes int) []byte {
	return append(state, make([]byte, imageBytes)...)
}

// flatCkptFile is the record of f, its State followed by pad zero bytes, as
// one contiguous buffer, for tests that decode it or compare it whole.
func flatCkptFile(v Variant, f CkptFile, pad int) []byte {
	return bytes.Join(encodeCkptFile(v, f, [][]byte{f.State}, pad), nil)
}

// sameBytes reports whether a and b are the same memory, not just equal.
func sameBytes(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// TestEncodeCkptFilePadsInPlace: the gathered record joins to the bytes the
// old encode gave for the materialised padded state and decodes to that state,
// and it is gathered, not built — under either capture family the record lends
// its state's parts as they are (a full image's snapshot, an incremental
// payload's parts) and pads with runs of the shared zero page, so its own
// bytes are its header and trailer.
func TestEncodeCkptFilePadsInPlace(t *testing.T) {
	deps := []Dep{{SrcRank: 3, SrcIndex: 7}, {SrcRank: 0, SrcIndex: 1}}
	for _, v := range []Variant{Indep, IndepInc} {
		for _, pad := range []int{0, 1, writeSegment, writeSegment + 1, 3 * writeSegment} {
			for _, stateLen := range []int{-1, 1, 4097} {
				var state []byte // -1: nil
				if stateLen >= 0 {
					state = bytes.Repeat([]byte{0xA5}, stateLen)
				}
				f := CkptFile{Index: 9, Prev: 8, Deps: deps, Lib: []byte("lib")}
				file := encodeCkptFile(v, f, [][]byte{state}, pad)
				got := bytes.Join(file, nil)
				padded := f
				padded.State = padImage(bytes.Clone(state), pad)
				if want := refEncodeCkptFile(v, padded); !bytes.Equal(got, want) {
					t.Fatalf("%v pad %d state %d: %d bytes, the padded state encodes to %d", v, pad, stateLen, len(got), len(want))
				}
				lent, zeros, owned := 0, 0, 0
				for _, part := range file {
					switch {
					case len(state) > 0 && sameBytes(part, state):
						lent++
					case len(part) > 0 && sameBytes(part, zeroPage[:len(part)]):
						zeros += len(part)
					default:
						owned += len(part)
					}
				}
				wantLent, ownMax := 0, 8*5+16*len(deps)+len("lib")
				if len(state) > 0 {
					wantLent = 1
				}
				if lent != wantLent || zeros != pad {
					t.Errorf("%v pad %d state %d: state lent %d times (want %d), %d of %d pad bytes from the zero page",
						v, pad, stateLen, lent, wantLent, zeros, pad)
				}
				if len(state) == 0 && pad == 0 && (len(file) != 1 || cap(file[0]) != len(file[0])) {
					t.Errorf("%v: a record with no state in %d slices, the first %d bytes in a buffer of %d",
						v, len(file), len(file[0]), cap(file[0]))
				}
				if owned > ownMax {
					t.Errorf("%v pad %d state %d: %d bytes of the record are its own, want <= %d", v, pad, stateLen, owned, ownMax)
				}
				back, err := decodeCkptFile(v, got)
				if err != nil || !bytes.Equal(back.State, padded.State) || string(back.Lib) != "lib" {
					t.Fatalf("%v pad %d state %d: round trip: %v", v, pad, stateLen, err)
				}
			}
		}
	}
}

// sizedSnap is a snapshotter whose successive snapshots have the given
// lengths and no zero byte.
type sizedSnap struct {
	lens []int
	next int
}

func (s *sizedSnap) Snapshot() []byte {
	b := bytes.Repeat([]byte{byte(0x11 * (s.next + 1))}, s.lens[s.next%len(s.lens)])
	s.next++
	return b
}
func (s *sizedSnap) Restore([]byte) {}

// lendingRing is rank 0 of the ring, keeping every snapshot it lends by
// checkpoint index and calling check with the index before it lends the next.
type lendingRing struct {
	*ringProg
	lent  map[int][]byte
	check func(index int)
}

func (l *lendingRing) SnapshotAt(index int) []byte {
	l.check(index)
	l.lent[index] = l.Snapshot()
	return l.lent[index]
}
func (l *lendingRing) RestoreAt(_ int, b []byte) { l.Restore(b) }

// holds reports whether img's held image is the committed snapshot snap: the
// two are equal, and where snap was lent whole the held pages are its memory —
// writing a byte of snap changes the held image. It reports too whether snap
// was lent whole.
func holds(img *heldImage, snap []byte) (ok, lentWhole bool) {
	orig := bytes.Clone(snap)
	if !bytes.Equal(bytes.Join(img.pages, nil), orig) {
		return false, false
	}
	if len(img.pages) == 0 || !overlaps(img.pages[0], snap) {
		return true, false // gathered: pages of earlier images, and copies
	}
	snap[len(snap)-1] ^= 0xFF
	defer func() { snap[len(snap)-1] ^= 0xFF }()
	return !bytes.Equal(bytes.Join(img.pages, nil), orig), true
}

// TestIncBaselineIsCommittedSnapshot: once a checkpoint commits, the node's
// held image — the diff baseline — joins to the snapshot the program lent for
// it, and is that snapshot's memory where it was lent whole; and a capture
// that never commits leaves the previous held image as it was, page for page,
// so none of its copies is ever held: the timer drivers' write that fails
// through its retry budget is skipped (CIC_INC's among forced checkpoints),
// the coordinated drivers' attempt whose write fails is aborted and retried
// (Coord_NB_FT_INC's under the 3PC commit). Every capture of rank 0 checks,
// before it snapshots, that the held image is the last committed checkpoint's
// snapshot, and that it is the very pages it was at the previous capture when
// nothing committed in between.
func TestIncBaselineIsCommittedSnapshot(t *testing.T) {
	for _, c := range []struct {
		v                Variant
		aborted, skipped int // RoundsAborted, SkippedCkpts: the one failed write
		forced           bool
	}{
		{IndepInc, 0, 1, false},
		{CICInc, 0, 1, true},
		{CoordNBInc, 1, 0, false},
		{CoordNBFTInc, 1, 0, false},
	} {
		v := c.v
		t.Run(v.String(), func(t *testing.T) {
			m := par.NewMachine(par.DefaultConfig())
			defer m.Shutdown()
			committed, captures := 0, map[int]int{}
			sch := New(v, Options{Interval: sim.Second, MaxCheckpoints: 6, CommitHook: func(recs []Record) {
				for _, r := range recs {
					if r.Rank == 0 {
						committed = r.Index
					}
				}
			}})
			sch.Attach(m)
			var img *heldImage
			switch s := sch.(type) {
			case *localTimers:
				img = &s.nodes[0].img
			case *coordinated:
				img = &s.nodes[0].img
			}
			failed := v.StatePath(0, 2) // the first write of rank 0's second checkpoint fails
			for _, st := range m.Stores {
				st.FaultHook = func(op storage.Op, path string) error {
					if path == failed && captures[2] == 1 {
						return storage.ErrUnavailable
					}
					return nil
				}
			}
			w := mp.NewWorld(m)
			n := m.NumNodes()
			rank0 := &lendingRing{ringProg: newRingProg(0, n, 400, 10_000, 2e5), lent: map[int][]byte{}}
			var seen [][]byte // the held pages at the previous capture
			seenAt, wholes, gathered, kept := 0, 0, 0, 0
			rank0.check = func(index int) {
				captures[index]++
				if committed > 0 {
					ok, whole := holds(img, rank0.lent[committed])
					if !ok {
						t.Errorf("capture %d (#%d): the baseline is not checkpoint %d's snapshot", index, captures[index], committed)
					}
					if whole {
						wholes++
					} else {
						gathered++
					}
				}
				if committed == seenAt && seen != nil {
					kept++
					for i, page := range img.pages {
						if i >= len(seen) || !sameBytes(page, seen[i]) {
							t.Errorf("capture %d (#%d): held page %d changed with no commit since the last capture", index, captures[index], i)
						}
					}
				}
				seen, seenAt = append(seen[:0], img.pages...), committed
			}
			w.Launch(0, rank0)
			for rank := 1; rank < n; rank++ {
				w.Launch(rank, newRingProg(rank, n, 400, 10_000, 2e5))
			}
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if ok, _ := holds(img, rank0.lent[committed]); !ok {
				t.Errorf("after the run: the baseline is not the last committed checkpoint's (%d) snapshot", committed)
			}
			if wholes == 0 || gathered == 0 || kept == 0 {
				t.Errorf("captures saw %d baselines lent whole, %d gathered and %d kept past a failed write: want each", wholes, gathered, kept)
			}
			st := sch.Stats()
			if st.RoundsAborted != c.aborted || st.SkippedCkpts != c.skipped || (st.ForcedCkpts > 0) != c.forced {
				t.Fatalf("%d rounds aborted, %d checkpoints skipped, %d forced: want %d, %d, forced %v",
					st.RoundsAborted, st.SkippedCkpts, st.ForcedCkpts, c.aborted, c.skipped, c.forced)
			}
			if v.Coordinated() && captures[2] != 2 {
				t.Fatalf("round 2 captured %d times: want the failed write to abort it once and the retry to capture it again", captures[2])
			}
			if !v.Coordinated() && (captures[2] != 1 || captures[3] != 1) {
				t.Fatalf("checkpoints 2 and 3 captured %d and %d times: want the failed write skipped and the next taken", captures[2], captures[3])
			}
			if committed < 4 {
				t.Fatalf("rank 0 committed up to checkpoint %d; the history is too short to test anything", committed)
			}
		})
	}
}

// allocsPerFileByte captures rounds full-image checkpoints of a 256 B ring
// state on a default machine (64 KiB process image), builds each one's file
// and cuts it into its requests, and returns the bytes the host allocated per
// byte of file.
func allocsPerFileByte(t *testing.T, v Variant, build func(k int, c *ckptCapture) [][]byte) float64 {
	t.Helper()
	m := par.NewMachine(par.DefaultConfig())
	defer m.Shutdown()
	n := m.Nodes[0]
	n.Snap = &sizedSnap{lens: []int{256}}
	const rounds = 64
	written := 0
	var held heldImage
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 1; k <= rounds; k++ {
		c := ckptCapture{index: k}
		held.capture(n, &c)
		segmentFile("f", build(k, &c), func(req storage.Request, _ bool) { written += req.Len() })
	}
	runtime.ReadMemStats(&after)
	if want := rounds * (256 + m.Cfg.CkptImageBytes); written < want {
		t.Fatalf("%d captures wrote %d bytes, want at least %d", rounds, written, want)
	}
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(written)
	t.Logf("%v: %d bytes allocated per capture, %.4f per byte of file", v, (after.TotalAlloc-before.TotalAlloc)/rounds, perByte)
	return perByte
}

// TestAllocsTimerCapture pins the full-image capture at the snapshot and the
// record's two small ends: the image's pad is borrowed, the snapshot lent and
// a segment that straddles them gathered, so a ring state's file costs a few
// hundred bytes — not a buffer of its own size (1.0 bytes per byte of file
// before, 2.2 before that).
func TestAllocsTimerCapture(t *testing.T) {
	deps, lib := []Dep{{SrcRank: 1, SrcIndex: 2}}, make([]byte, 64)
	perByte := allocsPerFileByte(t, Indep, func(k int, c *ckptCapture) [][]byte {
		return encodeCkptFile(Indep, CkptFile{Index: k, Deps: deps, Lib: lib}, c.image, c.pad)
	})
	if perByte > 0.05 {
		t.Fatalf("capturing a full-image checkpoint allocated %.3f bytes per byte of file, want <= 0.05", perByte)
	}
}

// TestAllocsCoordCapture is the coordinated twin: the slot file is the
// snapshot, the zero page and the record's framing, nothing else.
func TestAllocsCoordCapture(t *testing.T) {
	perByte := allocsPerFileByte(t, CoordNB, func(_ int, c *ckptCapture) [][]byte {
		return c.file(CoordNB)
	})
	if perByte > 0.05 {
		t.Fatalf("capturing a coordinated full-image checkpoint allocated %.3f bytes per byte of file, want <= 0.05", perByte)
	}
}

// pagedSnaps lends prebuilt 1 MiB paged snapshots in turn: every other page
// zero, and a tenth of the pages rewritten from one snapshot to the next. The
// snapshots are built before anything is measured and never written after.
type pagedSnaps struct {
	snaps [][]byte
	next  int
}

func newPagedSnaps(count int) *pagedSnaps {
	const size, page = 1 << 20, 4096
	base := make([]byte, size)
	for pg := 0; pg < size/page; pg += 2 {
		for i := pg * page; i < (pg+1)*page; i++ {
			base[i] = byte(i*7 + pg + 1)
		}
	}
	s := &pagedSnaps{}
	for k := 0; k < count; k++ {
		snap := bytes.Clone(base)
		for j := 0; j < size/page/10; j++ {
			pg := (k*7 + j*13) % (size / page)
			snap[pg*page+j] = byte(k + 1)
		}
		s.snaps = append(s.snaps, snap)
	}
	return s
}

func (s *pagedSnaps) Snapshot() []byte {
	b := s.snaps[s.next%len(s.snaps)]
	s.next++
	return b
}
func (s *pagedSnaps) Restore([]byte)     {}
func (s *pagedSnaps) StatePageSize() int { return 4096 }

// heapSink keeps heapBytes' probe on the heap.
var heapSink []byte

// heapBytes is what the heap hands out for an object of n bytes: its size
// class, or whole pages for a large object.
func heapBytes(n int) int {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	heapSink = make([]byte, n)
	runtime.ReadMemStats(&after)
	heapSink = nil
	return int(after.TotalAlloc - before.TotalAlloc)
}

// within reports whether b lies in one of snaps.
func within(b []byte, snaps [][]byte) bool {
	for _, s := range snaps {
		if overlaps(b, s) {
			return true
		}
	}
	return false
}

// TestAllocsIncCapture pins a steady-state incremental capture and commit of a
// 1 MiB paged state at the record it builds plus a few hundred bytes: the
// payload's framing, the list of its parts and the file's, the record's two
// ends, and the copies of the changed pages, which the held image keeps. The
// payload's literals borrow the image's pages and the snapshot is never
// copied whole: neither the padded image nor a copy of it is built, before or
// after the encode.
func TestAllocsIncCapture(t *testing.T) {
	m := par.NewMachine(par.DefaultConfig())
	defer m.Shutdown()
	n := m.Nodes[0]
	snaps := newPagedSnaps(2 * BaseEvery)
	n.Snap = snaps
	img := heldImage{incremental: true}
	sizes := make([]int, 0, 1024)  // the record's objects, in bytes
	was := make([][]byte, 0, 1024) // the held pages before the capture
	capture := func(k int) {
		was = append(was[:0], img.pages...)
		c := ckptCapture{index: k}
		img.capture(n, &c)
		file := encodeCkptFile(IndepInc, CkptFile{Index: k, Prev: c.prev}, c.image, c.pad)
		framing := 0
		for _, part := range c.image {
			if !within(part, img.next) {
				framing += len(part)
			}
		}
		if framing > 64*len(img.next) { // a few records a page: the literals are copied
			t.Fatalf("capture %d: %d bytes of the payload are not borrowed from the image's %d pages", k, framing, len(img.next))
		}
		sizes = append(sizes, framing, 24*len(c.image), 24*cap(file), len(file[0])+len(file[len(file)-1]))
		img.commit()
		for i, page := range img.pages {
			if (i >= len(was) || !sameBytes(page, was[i])) && !within(page, snaps.snaps) {
				sizes = append(sizes, len(page)) // a changed page's copy
			}
		}
	}
	for k := 1; k <= 2*BaseEvery; k++ { // warm the holder's lists and the encoder's scratch
		capture(k)
	}
	const rounds = 4 * BaseEvery
	sizes = sizes[:0]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 1; k <= rounds; k++ {
		capture(2*BaseEvery + k)
	}
	runtime.ReadMemStats(&after)
	record := 0
	for _, size := range sizes {
		record += heapBytes(size)
	}
	extra := (int64(after.TotalAlloc-before.TotalAlloc) - int64(record)) / rounds
	t.Logf("incremental capture + commit of a 1 MiB state: %d record bytes and %d more per capture", record/rounds, extra)
	if extra > 512 {
		t.Fatalf("an incremental capture and commit allocate %d bytes besides the record; the image (%d bytes) is being built",
			extra, 1<<20+m.Cfg.CkptImageBytes)
	}
}

// driftingState is a program's 1 MiB paged state of which a few pages change
// between checkpoints; each Snapshot is a fresh copy of it, as the apps' are.
type driftingState struct {
	state []byte
	next  int
}

// driftPages is how many of driftingState's 256 pages change per snapshot.
const driftPages = 8

func (s *driftingState) Snapshot() []byte {
	const page = 4096
	for j := range driftPages {
		pg := (s.next*driftPages + j) * 7 % (len(s.state) / page)
		s.state[pg*page+j]++
	}
	s.next++
	return bytes.Clone(s.state)
}
func (s *driftingState) Restore([]byte)     {}
func (s *driftingState) StatePageSize() int { return 4096 }

// TestAllocsSharedCapture pins what stored full-image files keep alive: 24
// captures of a freshly allocated, mostly clean 1 MiB paged snapshot, every
// file kept as storage keeps its extents, leave the heap larger by one image,
// the changed pages and 64 KiB — the held image's first snapshot, the copies
// of what changed after it, and slice headers — where each file used to pin
// its own snapshot (24 images).
func TestAllocsSharedCapture(t *testing.T) {
	for _, v := range []Variant{IndepM, CoordNB} {
		t.Run(v.String(), func(t *testing.T) {
			m := par.NewMachine(par.DefaultConfig())
			defer m.Shutdown()
			n := m.Nodes[0]
			prog := &driftingState{state: make([]byte, 1<<20)}
			for i := range prog.state {
				prog.state[i] = byte(i*7 + i>>12 + 1)
			}
			n.Snap = prog
			const captures = 24
			extents := make([][]byte, 0, 4096) // what the server keeps: every request's slices
			var held heldImage
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for k := 1; k <= captures; k++ {
				c := ckptCapture{index: k}
				held.capture(n, &c)
				segmentFile("f", c.file(v), func(req storage.Request, _ bool) {
					extents = append(append(extents, req.Data), req.More...)
				})
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(extents)
			runtime.KeepAlive(held)
			growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
			bound := int64(len(prog.state) + (captures-1)*driftPages*4096 + 64<<10)
			t.Logf("%d captures of a 1 MiB state, every file kept: heap %+d bytes (bound %d)", captures, growth, bound)
			if growth > bound {
				t.Fatalf("%d kept files hold %d bytes of heap, want <= %d: the files pin their snapshots", captures, growth, bound)
			}
		})
	}
}
