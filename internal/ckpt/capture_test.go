package ckpt

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/codec"
	"repro/internal/par"
)

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

// TestEncodeCkptFilePadsInPlace: writing the pad inside the record encode gives
// the bytes the old encode gave for the materialised padded state, in a buffer
// of exactly the record's size, and the result decodes to that padded state.
func TestEncodeCkptFilePadsInPlace(t *testing.T) {
	deps := []Dep{{SrcRank: 3, SrcIndex: 7}, {SrcRank: 0, SrcIndex: 1}}
	for _, v := range []Variant{Indep, IndepInc} {
		for _, pad := range []int{0, 1, 65536} {
			for _, stateLen := range []int{-1, 1, 4097} {
				var state []byte // -1: nil
				if stateLen >= 0 {
					state = bytes.Repeat([]byte{0xA5}, stateLen)
				}
				f := CkptFile{Index: 9, Prev: 8, Deps: deps, State: state, Lib: []byte("lib")}
				got := encodeCkptFile(v, f, pad)
				padded := f
				padded.State = padImage(bytes.Clone(state), pad)
				if want := refEncodeCkptFile(v, padded); !bytes.Equal(got, want) {
					t.Fatalf("%v pad %d state %d: %d bytes, the padded state encodes to %d", v, pad, stateLen, len(got), len(want))
				}
				if cap(got) != len(got) {
					t.Errorf("%v pad %d state %d: record of %d bytes in a buffer of %d", v, pad, stateLen, len(got), cap(got))
				}
				back, err := DecodeCkptFile(v, got)
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

// TestIncCaptureImageReuse: one IncCapture's image buffer, reused across
// captures whose snapshot shrinks and grows, always holds exactly the padded
// snapshot — the tail the longer snapshot dirtied is zero again.
func TestIncCaptureImageReuse(t *testing.T) {
	m := par.NewMachine(par.DefaultConfig())
	defer m.Shutdown()
	n := m.Nodes[0]
	snap := &sizedSnap{lens: []int{300, 100, 500, 500, 0, 70_000, 1}}
	n.Snap = snap
	ref := &sizedSnap{lens: snap.lens}
	var inc *IncCapture
	for k := 1; k <= 2*len(snap.lens); k++ {
		c := ckptCapture{index: k}
		c.captureImage(n, IndepInc, &inc)
		want := padImage(ref.Snapshot(), m.Cfg.CkptImageBytes)
		if !bytes.Equal(c.img, want) {
			t.Fatalf("capture %d: image of %d bytes is not the padded snapshot (%d bytes)", k, len(c.img), len(want))
		}
		if c.pad != 0 {
			t.Fatalf("capture %d: incremental payload carries pad %d", k, c.pad)
		}
		c.scratch.Free()
		if k%2 == 0 { // every other capture becomes durable; the rest re-diff against it
			inc.Commit(k, c.img, c.prev)
			if !bytes.Equal(inc.tracker.Prev(), want) {
				t.Fatalf("capture %d: retained baseline differs from the image", k)
			}
		}
	}
}

// TestAllocsTimerCapture pins the full-image capture at one buffer per durable
// file: the snapshot, then the record it is padded into — not a padded image
// and a record (2.2 bytes per byte of a ring state's file, before).
func TestAllocsTimerCapture(t *testing.T) {
	m := par.NewMachine(par.DefaultConfig())
	defer m.Shutdown()
	n := m.Nodes[0]
	n.Snap = &sizedSnap{lens: []int{256}}
	deps, lib := []Dep{{SrcRank: 1, SrcIndex: 2}}, make([]byte, 64)
	const rounds = 64
	written := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 1; k <= rounds; k++ {
		c := ckptCapture{index: k}
		c.captureImage(n, Indep, nil)
		written += len(encodeCkptFile(Indep, CkptFile{Index: k, Deps: deps, State: c.state, Lib: lib}, c.pad))
	}
	runtime.ReadMemStats(&after)
	if perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(written); perByte > 1.25 {
		t.Fatalf("capturing %d full-image checkpoints allocated %.2f bytes per byte of file, want <= 1.25", rounds, perByte)
	}
}

// TestAllocsIncCapture pins the incremental capture's image at one buffer per
// node: after the first capture, neither padding, encoding nor retaining the
// image allocates anything of its size.
func TestAllocsIncCapture(t *testing.T) {
	m := par.NewMachine(par.DefaultConfig())
	defer m.Shutdown()
	n := m.Nodes[0]
	n.Snap = &sizedSnap{lens: []int{256}}
	var inc *IncCapture
	capture := func(k int) {
		c := ckptCapture{index: k}
		c.captureImage(n, IndepInc, &inc)
		_ = encodeCkptFile(IndepInc, CkptFile{Index: k, Prev: c.prev, State: c.state}, c.pad)
		c.scratch.Free()
		inc.Commit(k, c.img, c.prev)
	}
	capture(1)
	const rounds = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 2; k < 2+rounds; k++ {
		capture(k)
	}
	runtime.ReadMemStats(&after)
	perCapture := (after.TotalAlloc - before.TotalAlloc) / rounds
	if image := uint64(256 + m.Cfg.CkptImageBytes); perCapture > image/8 {
		t.Fatalf("an incremental capture allocates %d bytes; the image, %d bytes, is being rebuilt", perCapture, image)
	}
}
