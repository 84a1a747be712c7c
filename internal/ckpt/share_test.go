package ckpt

import (
	"bytes"
	"testing"
	"unsafe"
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
	numShareOps
)

// shareSequence decodes a page size and a run of snapshots from ops: ops[0]
// picks the page size, ops[1] the first snapshot's length (9 bytes a unit), and each pair
// after that an edit of the previous snapshot (kind, arg). Every snapshot is
// a fresh allocation exactly as long as its length, as a program's would be.
func shareSequence(ops []byte) (pageSize int, snaps [][]byte) {
	if len(ops) < 2 {
		return 1, nil
	}
	pageSize = 1 + int(ops[0])%64
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
		switch int(ops[i]) % numShareOps {
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
		}
		snaps = append(snaps, snap)
	}
	return pageSize, snaps
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
			for i, page := range held {
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
		if !bytes.Equal(bytes.Join(held, nil), snap) {
			t.Fatalf("capture %d (page %d): the held image is not the snapshot", k, pageSize)
		}
		if reach := heldReach(held, lent); reach > 2*len(snap) {
			t.Fatalf("capture %d (page %d): the held image of %d bytes keeps %d reachable", k, pageSize, len(snap), reach)
		}
	}
	return lentWhole
}

// heldReach is the memory the held image keeps reachable: each snapshot lent
// whole that a page in its list lies in, once, and each other page's own
// allocation — past the list's length too, up to its capacity, since the
// garbage collector sees the whole backing array.
func heldReach(held heldImage, lent [][]byte) int {
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

// TestSharedImageSequences: each snapshot sequence under checkShare, with the
// captures lent whole that the sharing rules call for — the first, one with
// more than half its bytes in changed pages, a shorter one, and no other: a
// rotating half-dirty pattern whose changed pages are exactly half the image
// is gathered every time.
func TestSharedImageSequences(t *testing.T) {
	repeat := func(ops []byte, op, arg byte, n int) []byte {
		for range n {
			ops = append(ops, op, arg)
		}
		return ops
	}
	for _, c := range []struct {
		name string
		ops  []byte
		lent int // captures lent whole, of 1+n
	}{
		{"identical, page multiple", repeat([]byte{15, 16}, opSame, 0, 6), 1},        // 144 bytes, 16-byte pages
		{"identical, ragged", repeat([]byte{15, 17}, opSame, 0, 6), 1},               // 153 bytes
		{"few dirty, ragged", repeat([]byte{7, 41}, opFewDirty, 3, 12), 1},           // 369 bytes, 8-byte pages
		{"few dirty, one page", repeat([]byte{63, 3}, opFewDirty, 0, 5), 6},          // 27 bytes in one 64-byte page: every capture changes it
		{"fully new", repeat([]byte{7, 40}, opFresh, 0, 5), 6},                       // every page changed
		{"growing", repeat([]byte{9, 30}, opGrow, 2, 8), 1},                          // 270 bytes, 10-byte pages, +3 a capture: the ragged tail grows
		{"shrinking", repeat([]byte{9, 30}, opShrink, 2, 8), 9},                      // a shorter image is lent whole
		{"rotating half-dirty", repeat([]byte{7, 32}, opHalfDirty, 0, 8), 1},         // 288 bytes: 36 pages, 18 rewritten
		{"rotating half-dirty, ragged", repeat([]byte{7, 33}, opHalfDirty, 0, 8), 5}, // 297 bytes, 38 pages: the 19 full ones are 152 bytes, lent
		{"grow then shrink", append(repeat([]byte{31, 20}, opGrow, 40, 3), repeat(nil, opShrink, 60, 3)...), 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			pageSize, snaps := shareSequence(c.ops)
			if lent := checkShare(t, pageSize, snaps); lent != c.lent {
				t.Fatalf("%d of %d captures lent whole, want %d", lent, len(snaps), c.lent)
			}
		})
	}
}

// FuzzSharedImage: checkShare over generated snapshot sequences — page sizes
// from 1 to 64 bytes, lengths on and off page boundaries, identical, fully new,
// growing, shrinking, half-dirty and nearly clean snapshots in any order.
func FuzzSharedImage(f *testing.F) {
	f.Add([]byte{15, 16, opSame, 0, opFewDirty, 1, opGrow, 9, opShrink, 30, opFresh, 0})
	f.Add([]byte{7, 33, opHalfDirty, 0, opHalfDirty, 0, opHalfDirty, 0, opFewDirty, 2})
	f.Add([]byte{0, 5, opGrow, 0, opGrow, 1, opSame, 0, opShrink, 0})
	f.Add([]byte{63, 200, opFewDirty, 7, opGrow, 255, opFewDirty, 3, opShrink, 255, opShrink, 255})
	f.Add([]byte{3, 0, opGrow, 4, opSame, 0, opShrink, 9, opGrow, 20})
	f.Fuzz(func(t *testing.T, ops []byte) {
		pageSize, snaps := shareSequence(ops)
		checkShare(t, pageSize, snaps)
	})
}
