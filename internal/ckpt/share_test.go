package ckpt

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/codec"
)

// overlaps reports whether a and b share a byte of memory.
func overlaps(a, b []byte) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	pa, pb := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return pa < pb+uintptr(len(b)) && pb < pa+uintptr(len(a))
}

// Snapshot edits of shareSequence, one per op.
const (
	opSame      = iota // an identical snapshot
	opFresh            // the same length, every byte new
	opGrow             // the same prefix, arg+1 bytes longer
	opShrink           // the same prefix, up to arg+1 bytes shorter
	opHalfDirty        // every other page rewritten, alternating which half
	opFewDirty         // arg%4+1 bytes rewritten
	opGrowZeros        // the same prefix, arg+1 zero bytes longer
	numShareOps
)

// Flags of shareSequence's ops.
const (
	opAbort = 0x80 // an edit's kind, or ops[0]: an incremental capture of the snapshot aborts
	padded  = 0x40 // ops[0]: the image pads each snapshot with seqPad zero bytes
	seqPad  = 37
)

// shareSequence decodes a page size, a pad and a run of snapshots from ops:
// ops[0] picks the page size and flags the pad, ops[1] the first snapshot's
// length (9 bytes a unit), and each pair after that an edit of the previous
// snapshot (kind, arg). Every snapshot is a fresh allocation exactly as long as
// its length, as a program's would be. aborted flags the snapshots whose
// incremental capture aborts instead of committing: ops[0]'s opAbort bit for
// the first, each kind's for the one it makes.
func shareSequence(ops []byte) (pageSize, pad int, snaps [][]byte, aborted []bool) {
	if len(ops) < 2 {
		return 1, 0, nil, nil
	}
	pageSize = 1 + int(ops[0])%64
	if ops[0]&padded != 0 {
		pad = seqPad
	}
	aborted = append(aborted, ops[0]&opAbort != 0)
	rnd := uint64(0x9E3779B97F4A7C15)
	next := func() byte {
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		return byte(rnd)
	}
	fresh := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = next()
		}
		return b
	}
	clone := func(b []byte) []byte { return append(make([]byte, 0, len(b)), b...) }
	snaps = append(snaps, fresh(int(ops[1])*9))
	for i := 2; i+1 < len(ops) && len(snaps) < 64; i += 2 {
		prev, arg := snaps[len(snaps)-1], int(ops[i+1])
		var snap []byte
		switch int(ops[i]&^opAbort) % numShareOps {
		case opSame:
			snap = clone(prev)
		case opFresh:
			snap = fresh(len(prev))
		case opGrow:
			snap = fresh(min(len(prev)+arg+1, 4096))
			copy(snap, prev)
		case opShrink:
			snap = make([]byte, max(len(prev)-arg-1, 0))
			copy(snap, prev)
		case opHalfDirty:
			snap = clone(prev)
			for lo := (len(snaps) % 2) * pageSize; lo < len(snap); lo += 2 * pageSize {
				snap[lo] = ^snap[lo]
			}
		case opFewDirty:
			snap = clone(prev)
			for j := 0; j <= arg%4 && len(snap) > 0; j++ {
				snap[(arg*131+j*977)%len(snap)]++
			}
		case opGrowZeros:
			snap = make([]byte, min(len(prev)+arg+1, 4096))
			copy(snap, prev)
		}
		snaps = append(snaps, snap)
		aborted = append(aborted, ops[i]&opAbort != 0)
	}
	return pageSize, pad, snaps, aborted
}

// checkShare captures snaps in order through one held image, keeping every
// file, and after every capture holds share to its contract: the parts join
// to the snapshot; a snapshot not lent whole is aliased by no part and no held
// page, then or later; no byte of a snapshot, a stored file or the held image
// is ever written; and the held image keeps at most twice its own size
// reachable. It returns how many snapshots were lent whole.
func checkShare(t *testing.T, pageSize int, snaps [][]byte) (lentWhole int) {
	t.Helper()
	var held heldImage
	var lent, copied, want [][]byte // want: each snapshot's bytes when it was captured
	var files [][][]byte            // every file's parts, kept as storage keeps them
	for k, snap := range snaps {
		want = append(want, bytes.Clone(snap))
		parts := held.share(snap, pageSize)
		files = append(files, parts)
		if got := bytes.Join(parts, nil); !bytes.Equal(got, snap) {
			t.Fatalf("capture %d (page %d): the parts join to %d bytes that are not the %d-byte snapshot", k, pageSize, len(got), len(snap))
		}
		if len(parts) == 1 && sameBytes(parts[0], snap) {
			lent = append(lent, snap)
			lentWhole++
		} else {
			copied = append(copied, snap)
		}
		for j, c := range copied {
			for i, part := range parts {
				if overlaps(part, c) {
					t.Fatalf("capture %d (page %d): part %d aliases the copied-from snapshot #%d", k, pageSize, i, j)
				}
			}
			for i, page := range held.pages {
				if overlaps(page, c) {
					t.Fatalf("capture %d (page %d): held page %d aliases the copied-from snapshot #%d", k, pageSize, i, j)
				}
			}
		}
		for i, f := range files {
			if !bytes.Equal(bytes.Join(f, nil), want[i]) || !bytes.Equal(snaps[i], want[i]) {
				t.Fatalf("capture %d (page %d): capture %d's file or snapshot was written", k, pageSize, i)
			}
		}
		if !bytes.Equal(bytes.Join(held.pages, nil), snap) {
			t.Fatalf("capture %d (page %d): the held image is not the snapshot", k, pageSize)
		}
		if reach := heldReach(held.pages, lent); reach > 2*len(snap) {
			t.Fatalf("capture %d (page %d): the held image of %d bytes keeps %d reachable", k, pageSize, len(snap), reach)
		}
	}
	return lentWhole
}

// heldReach is the memory the held image keeps reachable: each snapshot lent
// whole that a page in its list lies in, once, and each other page's own
// allocation — past the list's length too, up to its capacity, since the
// garbage collector sees the whole backing array.
func heldReach(held [][]byte, lent [][]byte) int {
	seen := map[*byte]bool{}
	reach := 0
	for _, page := range held[:cap(held)] {
		if page == nil {
			continue
		}
		owner := page
		for _, s := range lent {
			if overlaps(page, s) {
				owner = s
				break
			}
		}
		if p := unsafe.SliceData(owner); !seen[p] {
			seen[p] = true
			reach += cap(owner)
		}
	}
	return reach
}

// checkIncShare captures snaps in order through one incremental holder, each
// padded with pad zero bytes, and commits each capture — storing its file as
// the timer driver does — or aborts it as aborted says. After every capture it
// holds the holder to its contract: a base payload (at the start of a chain:
// nothing committed yet, or BaseEvery-1 deltas since the last base) joins to
// codec.EncodeBaseImage of the padded snapshot, and a delta payload to
// codec.EncodeDelta of the padded last committed snapshot and the padded
// snapshot, its chain pointer that commit's index; the gathered file joins to
// the record of that reference payload; every part that is not framing
// borrows a page of the pending image, and no part of any file and no held
// page aliases a snapshot that was not lent whole; no snapshot, stored file or
// held byte is ever written; the held image is the last committed snapshot,
// so an aborted capture never becomes the baseline, and keeps at most twice
// its size reachable; and the stored chain read back through
// Replayer.ReconstructCkpt is the last committed snapshot followed by its pad.
// It returns how many captures were bases.
func checkIncShare(t *testing.T, pageSize, pad int, snaps [][]byte, aborted []bool) (bases int) {
	t.Helper()
	img := heldImage{incremental: true}
	files := map[string][]byte{}
	fetch := func(path string, _ []byte) ([]byte, error) {
		if f, ok := files[path]; ok {
			return f, nil
		}
		return nil, fmt.Errorf("no file %s", path)
	}
	var committed []byte
	var lent, copied, want [][]byte // want: each snapshot's bytes when it was captured
	var stored [][][]byte           // every stored file's parts, kept as storage keeps them
	var storedWant [][]byte
	last, sinceBase := 0, 0 // the last committed index, and deltas since its base
	for k, snap := range snaps {
		index := k + 1
		want = append(want, bytes.Clone(snap))
		payload, prev := img.encode(index, snap, pad, pageSize)
		ref, wantPrev := codec.EncodeBaseImage(padImage(bytes.Clone(snap), pad)), 0
		if last != 0 && sinceBase < BaseEvery-1 {
			ref = codec.EncodeDelta(padImage(bytes.Clone(committed), pad), padImage(bytes.Clone(snap), pad), pageSize)
			wantPrev = last
		}
		if prev != wantPrev || !bytes.Equal(bytes.Join(payload, nil), ref) {
			t.Fatalf("capture %d (page %d, pad %d): prev %d and a %d-byte payload, want prev %d and the reference's %d bytes",
				k, pageSize, pad, prev, fileLen(payload), wantPrev, len(ref))
		}
		file := encodeCkptFile(IndepInc, CkptFile{Index: index, Prev: prev}, payload, 0)
		if got, wantFile := bytes.Join(file, nil), flatCkptFile(IndepInc, CkptFile{Index: index, Prev: prev, State: ref}, 0); !bytes.Equal(got, wantFile) {
			t.Fatalf("capture %d (page %d, pad %d): the gathered file is %d bytes that are not the reference payload's %d-byte record",
				k, pageSize, pad, len(got), len(wantFile))
		}
		if len(snap) > 0 && overlaps(img.next[0], snap) {
			lent = append(lent, snap)
		} else {
			copied = append(copied, snap)
		}
		for i, part := range payload {
			if (overlaps(part, snap) || heldOverlap(img.pages, part)) && !heldOverlap(img.next, part) {
				t.Fatalf("capture %d (page %d, pad %d): payload part %d borrows bytes that are not the pending image's", k, pageSize, pad, i)
			}
		}
		if prev == 0 {
			bases++
		}
		if aborted[k] {
			img.abort()
		} else {
			files[IndepInc.StatePath(0, index)] = bytes.Join(file, nil)
			stored, storedWant = append(stored, file), append(storedWant, bytes.Join(file, nil))
			img.commit()
			committed, last = snap, index
			if sinceBase++; prev == 0 {
				sinceBase = 0
			}
		}
		for j, c := range copied {
			for i, f := range stored {
				for _, part := range f {
					if overlaps(part, c) {
						t.Fatalf("capture %d (page %d, pad %d): stored file %d aliases the copied-from snapshot #%d", k, pageSize, pad, i, j)
					}
				}
			}
			if heldOverlap(img.pages, c) {
				t.Fatalf("capture %d (page %d, pad %d): the held image aliases the copied-from snapshot #%d", k, pageSize, pad, j)
			}
		}
		for i, f := range stored {
			if !bytes.Equal(bytes.Join(f, nil), storedWant[i]) {
				t.Fatalf("capture %d (page %d, pad %d): stored file %d was written", k, pageSize, pad, i)
			}
		}
		for i := range want {
			if !bytes.Equal(snaps[i], want[i]) {
				t.Fatalf("capture %d (page %d, pad %d): snapshot %d was written", k, pageSize, pad, i)
			}
		}
		if got := bytes.Join(img.pages, nil); !bytes.Equal(got, committed) {
			t.Fatalf("capture %d (page %d, pad %d): the held image is %d bytes that are not the last committed snapshot's %d",
				k, pageSize, pad, len(got), len(committed))
		}
		if reach := heldReach(img.pages, lent); reach > 2*len(committed) {
			t.Fatalf("capture %d (page %d, pad %d): the held image of %d bytes keeps %d reachable", k, pageSize, pad, len(committed), reach)
		}
		if len(img.next) != 0 {
			t.Fatalf("capture %d (page %d, pad %d): %d pages still pending after the commit or abort", k, pageSize, pad, len(img.next))
		}
		if last == 0 {
			continue
		}
		got, err := new(Replayer).ReconstructCkpt(IndepInc, 0, last, fetch)
		if err != nil || !bytes.Equal(got, padImage(bytes.Clone(committed), pad)) {
			t.Fatalf("capture %d (page %d, pad %d): checkpoint %d reads back as %d bytes (%v), want its %d-byte padded snapshot",
				k, pageSize, pad, last, len(got), err, len(committed)+pad)
		}
	}
	return bases
}

// heldOverlap reports whether b shares memory with one of pages.
func heldOverlap(pages [][]byte, b []byte) bool {
	for _, page := range pages {
		if overlaps(page, b) {
			return true
		}
	}
	return false
}

// TestSharedImageSequences: each snapshot sequence under checkShare, with the
// captures lent whole that the sharing rules call for — the first, one with
// more than half its bytes in changed pages, a shorter one, and no other: a
// rotating half-dirty pattern whose changed pages are exactly half the image
// is gathered every time — and under checkIncShare, with the bases the chain
// rules call for: the first commit's capture, every BaseEvery-th after it, and
// every capture until something commits.
func TestSharedImageSequences(t *testing.T) {
	repeat := func(ops []byte, op, arg byte, n int) []byte {
		for range n {
			ops = append(ops, op, arg)
		}
		return ops
	}
	for _, c := range []struct {
		name  string
		ops   []byte
		lent  int // captures lent whole, of 1+n
		bases int // incremental captures that are bases
	}{
		{"identical, page multiple", repeat([]byte{15, 16}, opSame, 0, 6), 1, 2},        // 144 bytes, 16-byte pages
		{"identical, ragged", repeat([]byte{15, 17}, opSame, 0, 6), 1, 2},               // 153 bytes
		{"few dirty, ragged", repeat([]byte{7, 41}, opFewDirty, 3, 12), 1, 4},           // 369 bytes, 8-byte pages
		{"few dirty, one page", repeat([]byte{63, 3}, opFewDirty, 0, 5), 6, 2},          // 27 bytes in one 64-byte page: every capture changes it
		{"fully new", repeat([]byte{7, 40}, opFresh, 0, 5), 6, 2},                       // every page changed
		{"growing", repeat([]byte{9, 30}, opGrow, 2, 8), 1, 3},                          // 270 bytes, 10-byte pages, +3 a capture: the ragged tail grows
		{"shrinking", repeat([]byte{9, 30}, opShrink, 2, 8), 9, 3},                      // a shorter image is lent whole
		{"rotating half-dirty", repeat([]byte{7, 32}, opHalfDirty, 0, 8), 1, 3},         // 288 bytes: 36 pages, 18 rewritten
		{"rotating half-dirty, ragged", repeat([]byte{7, 33}, opHalfDirty, 0, 8), 5, 3}, // 297 bytes, 38 pages: the 19 full ones are 152 bytes, lent
		{"grow then shrink", append(repeat([]byte{31, 20}, opGrow, 40, 3), repeat(nil, opShrink, 60, 3)...), 4, 2},
		// Padded images: a grown snapshot's new zero pages are clean, and a
		// shrunk one's pages the pad now covers are dirty.
		{"growing zeros, padded", repeat([]byte{9 | padded, 30}, opGrowZeros, 12, 8), 1, 3},
		{"shrinking under the pad", repeat([]byte{9 | padded, 30}, opShrink, 15, 8), 9, 3},
		// Aborted captures, between commits and before the first.
		{"aborts between commits", []byte{15, 16, opFewDirty | opAbort, 3, opFewDirty, 3, opHalfDirty | opAbort, 0, opSame, 0,
			opFresh | opAbort, 0, opFewDirty, 1, opGrow | opAbort, 7, opShrink, 2, opFewDirty, 5}, 3, 3}, // the 8th, aborted, starts a chain; the 9th, committed, another
		{"first captures aborted", []byte{7 | opAbort | padded, 20, opFewDirty | opAbort, 1, opFewDirty, 2, opFewDirty, 3, opGrowZeros, 9}, 1, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			pageSize, pad, snaps, aborted := shareSequence(c.ops)
			if lent := checkShare(t, pageSize, snaps); lent != c.lent {
				t.Errorf("%d of %d captures lent whole, want %d", lent, len(snaps), c.lent)
			}
			if bases := checkIncShare(t, pageSize, pad, snaps, aborted); bases != c.bases {
				t.Errorf("%d of %d incremental captures were bases, want %d", bases, len(snaps), c.bases)
			}
		})
	}
}

// FuzzSharedImage: checkShare and checkIncShare over generated snapshot
// sequences — page sizes from 1 to 64 bytes, lengths on and off page
// boundaries, images padded or not, identical, fully new, growing (with bytes
// or zeros), shrinking, half-dirty and nearly clean snapshots in any order,
// and any incremental capture aborted instead of committed.
func FuzzSharedImage(f *testing.F) {
	f.Add([]byte{15, 16, opSame, 0, opFewDirty, 1, opGrow, 9, opShrink, 30, opFresh, 0})
	f.Add([]byte{7, 33, opHalfDirty, 0, opHalfDirty, 0, opHalfDirty, 0, opFewDirty, 2})
	f.Add([]byte{0, 5, opGrow, 0, opGrow, 1, opSame, 0, opShrink, 0})
	f.Add([]byte{63, 200, opFewDirty, 7, opGrow, 255, opFewDirty, 3, opShrink, 255, opShrink, 255})
	f.Add([]byte{3, 0, opGrow, 4, opSame, 0, opShrink, 9, opGrow, 20})
	f.Add([]byte{9 | padded, 30, opGrowZeros, 12, opShrink | opAbort, 15, opShrink, 15, opFewDirty, 1, opGrowZeros, 40})
	f.Add([]byte{15 | opAbort, 16, opFewDirty | opAbort, 3, opFewDirty, 3, opHalfDirty | opAbort, 0, opSame, 0, opFresh, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		pageSize, pad, snaps, aborted := shareSequence(ops)
		checkShare(t, pageSize, snaps)
		checkIncShare(t, pageSize, pad, snaps, aborted)
	})
}
