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

// flatCkptFile is the record as one contiguous buffer, for tests that decode
// it or compare it whole.
func flatCkptFile(v Variant, f CkptFile, pad int) []byte {
	return bytes.Join(encodeCkptFile(v, f, pad), nil)
}

// sameBytes reports whether a and b are the same memory, not just equal.
func sameBytes(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// TestEncodeCkptFilePadsInPlace: the gathered record joins to the bytes the
// old encode gave for the materialised padded state and decodes to that state,
// and it is gathered, not built — a full-image record lends the snapshot as it
// is and pads with runs of the shared zero page, an incremental record embeds
// its payload (which lives in pooled scratch) and is one exactly sized buffer.
func TestEncodeCkptFilePadsInPlace(t *testing.T) {
	deps := []Dep{{SrcRank: 3, SrcIndex: 7}, {SrcRank: 0, SrcIndex: 1}}
	for _, v := range []Variant{Indep, IndepInc} {
		for _, pad := range []int{0, 1, writeSegment, writeSegment + 1, 3 * writeSegment} {
			for _, stateLen := range []int{-1, 1, 4097} {
				var state []byte // -1: nil
				if stateLen >= 0 {
					state = bytes.Repeat([]byte{0xA5}, stateLen)
				}
				f := CkptFile{Index: 9, Prev: 8, Deps: deps, State: state, Lib: []byte("lib")}
				file := encodeCkptFile(v, f, pad)
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
				if v.Incremental() {
					ownMax += len(state)
				} else if len(state) > 0 {
					wantLent = 1
				}
				if lent != wantLent || zeros != pad {
					t.Errorf("%v pad %d state %d: snapshot lent %d times (want %d), %d of %d pad bytes from the zero page",
						v, pad, stateLen, lent, wantLent, zeros, pad)
				}
				if v.Incremental() && pad == 0 && (len(file) != 1 || cap(file[0]) != len(file[0])) {
					t.Errorf("%v state %d: an incremental record in %d slices, the first %d bytes in a buffer of %d",
						v, stateLen, len(file), len(file[0]), cap(file[0]))
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

// TestEncodeRawImage: the coordinated full-image slot file is the snapshot,
// lent, and the pad, from the zero page — joined, the padded image.
func TestEncodeRawImage(t *testing.T) {
	for _, pad := range []int{0, 5, writeSegment, 2*writeSegment + 9} {
		for _, stateLen := range []int{0, 300, writeSegment} {
			state := bytes.Repeat([]byte{0x5A}, stateLen)
			file := encodeRawImage(state, pad)
			if !sameBytes(file[0], state) {
				t.Errorf("pad %d state %d: the file does not start with the snapshot as it is", pad, stateLen)
			}
			for _, part := range file[1:] {
				if !sameBytes(part, zeroPage[:len(part)]) {
					t.Errorf("pad %d state %d: a pad slice of %d bytes is not the zero page's", pad, stateLen, len(part))
				}
			}
			if want := padImage(bytes.Clone(state), pad); !bytes.Equal(bytes.Join(file, nil), want) || fileLen(file) != len(want) {
				t.Errorf("pad %d state %d: %d bytes, the padded image has %d", pad, stateLen, fileLen(file), len(want))
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

// holds reports whether inc's diff baseline is snap's backing array itself:
// the two compare equal, and writing a byte of snap changes the baseline.
func holds(inc *IncCapture, snap []byte) bool {
	orig := bytes.Clone(snap)
	if len(inc.tracker.DirtyPages(orig)) != 0 {
		return false
	}
	snap[len(snap)-1] ^= 0xFF
	defer func() { snap[len(snap)-1] ^= 0xFF }()
	return len(inc.tracker.DirtyPages(orig)) != 0
}

// TestIncBaselineIsCommittedSnapshot: once a checkpoint commits, the diff
// baseline is the snapshot the program lent for it — its backing array, not a
// copy — and a checkpoint that never commits leaves the previous baseline in
// place: the timer driver's write that fails through its retry budget is
// skipped, the coordinated driver's attempt whose write fails is aborted and
// retried. Every capture of rank 0 checks, before it snapshots, that the
// baseline is the last committed checkpoint's snapshot.
func TestIncBaselineIsCommittedSnapshot(t *testing.T) {
	for _, v := range []Variant{IndepInc, CoordNBInc} {
		t.Run(v.String(), func(t *testing.T) {
			m := par.NewMachine(par.DefaultConfig())
			defer m.Shutdown()
			sch := New(v, Options{Interval: sim.Second, MaxCheckpoints: 6})
			sch.Attach(m)
			var inc func() *IncCapture
			switch s := sch.(type) {
			case *localTimers:
				inc = func() *IncCapture { return s.nodes[0].inc }
			case *coordinated:
				inc = func() *IncCapture { return s.nodes[0].inc }
			}
			committed, captures := 0, map[int]int{}
			sch.SetCommitHook(func(recs []Record) {
				for _, r := range recs {
					if r.Rank == 0 {
						committed = r.Index
					}
				}
			})
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
			rank0.check = func(index int) {
				captures[index]++
				if committed > 0 && !holds(inc(), rank0.lent[committed]) {
					t.Errorf("capture %d (#%d): the baseline is not checkpoint %d's snapshot", index, captures[index], committed)
				}
			}
			w.Launch(0, rank0)
			for rank := 1; rank < n; rank++ {
				w.Launch(rank, newRingProg(rank, n, 400, 10_000, 2e5))
			}
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if !holds(inc(), rank0.lent[committed]) {
				t.Errorf("after the run: the baseline is not the last committed checkpoint's (%d) snapshot", committed)
			}
			st := sch.Stats()
			if v.Coordinated() && (st.RoundsAborted != 1 || captures[2] != 2) {
				t.Fatalf("%d rounds aborted, round 2 captured %d times: want the failed write to abort it once", st.RoundsAborted, captures[2])
			}
			if !v.Coordinated() && (st.SkippedCkpts != 1 || captures[3] != 1) {
				t.Fatalf("%d checkpoints skipped, checkpoint 3 captured %d times: want the failed write skipped and the next taken", st.SkippedCkpts, captures[3])
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
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 1; k <= rounds; k++ {
		c := ckptCapture{index: k}
		c.captureImage(n, v, nil)
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
		return encodeCkptFile(Indep, CkptFile{Index: k, Deps: deps, State: c.state, Lib: lib}, c.pad)
	})
	if perByte > 0.05 {
		t.Fatalf("capturing a full-image checkpoint allocated %.3f bytes per byte of file, want <= 0.05", perByte)
	}
}

// TestAllocsCoordCapture is the coordinated twin: the raw slot file is the
// snapshot and the zero page, nothing else.
func TestAllocsCoordCapture(t *testing.T) {
	perByte := allocsPerFileByte(t, CoordNB, func(_ int, c *ckptCapture) [][]byte {
		return encodeRawImage(c.state, c.pad)
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

// TestAllocsIncCapture pins a steady-state incremental capture and commit of a
// 1 MiB paged state at the record it builds plus a few hundred bytes: the
// payload is encoded from the snapshot where the program returned it into
// pooled scratch, and the baseline is that snapshot, held — neither the padded
// image nor a copy of it is built, before or after the encode.
func TestAllocsIncCapture(t *testing.T) {
	m := par.NewMachine(par.DefaultConfig())
	defer m.Shutdown()
	n := m.Nodes[0]
	n.Snap = newPagedSnaps(2 * BaseEvery)
	var inc *IncCapture
	record := 0 // the records' bytes as the heap hands them out: a large object takes whole 8 KiB pages
	capture := func(k int) {
		c := ckptCapture{index: k}
		c.captureImage(n, IndepInc, &inc)
		record += (fileLen(encodeCkptFile(IndepInc, CkptFile{Index: k, Prev: c.prev, State: c.state}, c.pad)) + 8191) &^ 8191
		c.scratch.Free()
		inc.Commit(k, c.snap, c.prev)
	}
	for k := 1; k <= 2*BaseEvery; k++ { // warm the pooled scratch to a base payload's size
		capture(k)
	}
	const rounds = 4 * BaseEvery
	record = 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 1; k <= rounds; k++ {
		capture(2*BaseEvery + k)
	}
	runtime.ReadMemStats(&after)
	extra := (int64(after.TotalAlloc-before.TotalAlloc) - int64(record)) / rounds
	t.Logf("incremental capture + commit of a 1 MiB state: %d record bytes and %d more per capture", record/rounds, extra)
	if extra > 512 {
		t.Fatalf("an incremental capture and commit allocate %d bytes besides the record; the image (%d bytes) is being built",
			extra, 1<<20+m.Cfg.CkptImageBytes)
	}
}
