package ckpt

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/codec"
	"repro/internal/mp"
	"repro/internal/par"
)

// encodeChanLog serializes logged in-transit messages for stable storage.
func encodeChanLog(msgs []*mp.Message) []byte {
	w := codec.NewWriter()
	w.Int(len(msgs))
	for _, m := range msgs {
		w.Int(m.Src)
		w.Int(m.Tag)
		for _, v := range m.Meta {
			w.U64(v)
		}
		w.Bytes8(m.Data)
	}
	return w.Bytes()
}

// DecodeChanLog parses a channel log written by encodeChanLog. Exported so the
// correctness oracle (package check) can audit a committed round's logged
// in-transit messages against its own send/delivery ledger.
func DecodeChanLog(b []byte) ([]*mp.Message, error) {
	r := codec.NewReader(b)
	n := r.Int()
	// Every entry holds at least its fixed fields (src, tag, piggyback, data
	// length): a count the blob cannot hold is damage, and must not size an
	// allocation.
	if n < 0 || r.Err() != nil || n > r.Remaining()/(8*(3+len(par.Piggyback{}))) {
		return nil, fmt.Errorf("ckpt: corrupt channel log header")
	}
	msgs := make([]*mp.Message, 0, n)
	for i := 0; i < n; i++ {
		m := &mp.Message{Src: r.Int(), Tag: r.Int()}
		for k := range m.Meta {
			m.Meta[k] = r.U64()
		}
		m.Data = r.Bytes8Borrow() // aliases the durable log blob; replayed messages are read-only
		msgs = append(msgs, m)
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("ckpt: corrupt channel log: %v", r.Err())
	}
	return msgs, nil
}

// newMetaRecord encodes the coordinator's durable round record.
func newMetaRecord(round int) []byte {
	w := codec.NewWriter()
	w.Int(round)
	return w.Bytes()
}

// ParseMetaRecord decodes the round record; a missing record means no round
// ever committed (round 0).
func ParseMetaRecord(b []byte) (int, error) {
	r := codec.NewReader(b)
	round := r.Int()
	if r.Err() != nil {
		return 0, fmt.Errorf("ckpt: corrupt round record: %v", r.Err())
	}
	return round, nil
}

// CkptFile is the content of one durable checkpoint file, in the one record
// format of every state file: every file of the local-timer families and every
// slot file of the coordinated rounds, which leave Deps and Lib empty.
type CkptFile struct {
	Index int // per-node checkpoint index, or the round number
	// Prev is the chain pointer, on disk exactly when capture is incremental:
	// 0 for a base image, else the index of the durable checkpoint the delta
	// in State was encoded against.
	Prev  int
	Deps  []Dep  // receive edges of the interval the checkpoint closed
	State []byte // padded program image, or the base/delta payload
	Lib   []byte // the library section (par.Node.Lib)
}

// zeroPage is the padding of every process image: one page of writeSegment
// zero bytes that every checkpoint file's tail borrows, however many files are
// in flight or stored, on however many machines of the process. It is shared
// and immutable — nothing in the tree writes it, storage never writes an
// extent, and readers of stored files treat what they borrow as read-only —
// and every oracle sweep and the tests hold it to that after everything has
// run (ZeroPageIntact).
var zeroPage = make([]byte, writeSegment)

// ZeroPageIntact reports whether the shared zero page still holds only zeros.
// A false answer means some holder of a checkpoint file's bytes — a stored
// extent, a read borrow, a decoded State — was written; check.Sweep asks once
// its cells have run, test binaries once everything has.
func ZeroPageIntact() bool {
	return !slices.ContainsFunc(zeroPage, func(b byte) bool { return b != 0 })
}

// fileLen is the size of a checkpoint file held as the slices it is the
// concatenation of.
func fileLen(file [][]byte) int {
	n := 0
	for _, part := range file {
		n += len(part)
	}
	return n
}

// heldImage is a node's image holder: the one place that knows what the
// rank's last image is and when it advances. An image is a snapshot followed
// by the process image's zero pad, which is never materialised; the holder
// keeps the snapshot as page-size slices. Each held page is a page of a
// snapshot lent whole or a copy of a changed page in an allocation of its own,
// and nothing ever writes one: a snapshot by par.Snapshotter's promise, a copy
// because its only writer is the copy. So any number of stored files share an
// unchanged page, and the host holds each distinct page once however many
// files are kept.
//
// Both capture families build the new image's page list the same way, in
// advance, from one compare (differs) of each page with the held image, and
// nowhere else; a file then gathers its state from that list — a full image
// its pages (share), an incremental payload its literals (encode). A full
// capture makes the list the held image at once, since no file diffs against
// it. An incremental payload is a base, or the delta of the pages the compare
// finds dirty, and that delta is only sound against the last *committed*
// image: Prev must name the checkpoint it was encoded against. So an
// incremental capture's list stays pending until its file is durable (for a
// round: committed), when commit makes it the held image; an aborted round
// (RoundsAborted) or a skipped write (SkippedCkpts) calls abort, which drops
// it, and the next capture re-diffs against the last image that exists. One
// pending capture per node is all there is to keep: incremental points block
// the application for every write, and a round has one attempt in flight.
type heldImage struct {
	pages       [][]byte
	next        [][]byte // the image the last capture built: pending, or empty
	incremental bool     // the node's capture family: encode, not share

	// Incremental capture only: the pending capture's index, the chain the
	// held image ends, the compare's dirty pages, and the payload encoder's
	// scratch.
	pendingIndex     int // 0: nothing pending
	prevIndex, chain int // the held image's index, and its chain's files so far; 0, 0: nothing committed
	dirty            []int
	enc              codec.Gatherer
}

// differs is the page compare of both capture families: it reports whether
// page — the part of a new snapshot's page i that lies in the snapshot — and
// held page i differ over the page's first n bytes, each read as zero past its
// end (and a page past the held image as all zero).
func (h *heldImage) differs(i int, page []byte, n int) bool {
	var old []byte
	if i < len(h.pages) {
		old = h.pages[i]
	}
	old, page = old[:min(len(old), n)], page[:min(len(page), n)]
	if len(old) > len(page) {
		old, page = page, old
	}
	return !bytes.Equal(old, page[:len(old)]) || !allZero(page[len(old):])
}

// allZero reports whether b holds only zero bytes, compared a zeroPage at a
// time.
func allZero(b []byte) bool {
	for ; len(b) > len(zeroPage); b = b[len(zeroPage):] {
		if !bytes.Equal(b[:len(zeroPage)], zeroPage) {
			return false
		}
	}
	return bytes.Equal(b, zeroPage[:len(b)])
}

// capture snapshots the program at c.index and gives c the parts its file
// gathers the state section from: under full capture the image's pages and
// the pad (share), under incremental capture the payload (encode). Runs in
// the application's context, like every state capture in the library.
func (h *heldImage) capture(n *par.Node, c *ckptCapture) {
	snap, pad, pageSize := par.SnapshotAt(n.Snap, c.index), max(n.M.Cfg.CkptImageBytes, 0), par.StatePageSizeOf(n.Snap)
	if !h.incremental {
		c.image, c.pad = h.share(snap, pageSize), pad
		return
	}
	c.image, c.prev = h.encode(c.index, snap, pad, pageSize)
}

// share returns the parts a full-image file gathers snap from, in order — one
// part, snap itself, when snap is lent whole (see advance) — and makes snap
// the held image. Either way the parts join to snap.
func (h *heldImage) share(snap []byte, pageSize int) [][]byte {
	h.advance(snap, 0, pageSize, false)
	h.pages, h.next = h.next, h.pages
	h.drop()
	var parts [][]byte
	for _, page := range h.pages {
		parts = codec.AppendPart(parts, page)
	}
	return parts
}

// encode returns the parts of the payload of an incremental checkpoint at
// index of snap followed by pad zero bytes, with its chain pointer: a
// zero-run-compressed base (prev 0) at the start of each chain — a node's
// first capture of an incarnation, and every BaseEvery-th — and otherwise the
// delta, against the held image, of the pages differs finds dirty. Its
// literals borrow the pages of the image advance builds, which stays pending
// until commit or abort. Neither pad is read: past both snapshots every page
// is clean without a look, and the process image is one size all run long.
func (h *heldImage) encode(index int, snap []byte, pad, pageSize int) (payload [][]byte, prev int) {
	h.pendingIndex = index
	if h.chain%BaseEvery == 0 { // nothing committed, or a full chain
		h.advance(snap, pad, pageSize, false)
		return h.enc.Base(h.next, pad), 0
	}
	h.advance(snap, pad, pageSize, true)
	return h.enc.Delta(fileLen(h.pages)+pad, h.next, pad, pageSize, h.dirty), h.prevIndex
}

// advance builds in next the page list of snap's image, from one compare of
// each page with the held image, and under delta the dirty pages of the
// padded image in dirty.
//
// snap is lent whole — the list is pages of snap itself — when nothing is held
// (a node's first capture; a restarted node's held image died with it), when
// more than half of its bytes lie in changed pages, or when it is shorter than
// the held image. An app that rewrites most of its state every interval (ASP,
// GAUSS, NBODY, TSP, NQUEENS) pays one compare per page that fails on the
// page's first bytes, until half the pages have failed. ISING's snapshot
// carries its read-only coupling rows, most of its bytes, so from its second
// capture on its files borrow them and copy the spin pages, and SOR's files
// often borrow unchanged rows.
//
// Otherwise snap is garbage once the capture's file is built: an unchanged
// page — one the held image has a slice of the same length for — is borrowed
// from the held image, and a changed one is copied into an allocation of its
// own. A held page thus never pins bytes no file or held page needs, and with
// no bookkeeping the held image keeps at most twice its own size reachable:
// pages of the last snapshot lent whole, which was no longer than the image
// because a shrink is lent whole, and copies, which are pages of the image.
//
// A delta must know every dirty page, so under delta the compare runs over
// the whole padded image — to the end of the held one where that is longer —
// lent or not, and a page's bytes past snap are compared as the pad's zeros.
// A dirty page is always a changed one, so a delta's literals are copies or
// pages of snap lent whole. Without delta the compare stops once snap is lent
// whole, and a page past the held image or of another length is changed
// without a look.
func (h *heldImage) advance(snap []byte, pad, pageSize int, delta bool) {
	held, total := fileLen(h.pages), len(snap)+pad
	lent, budget, changed := held == 0 || len(snap) < held, len(snap)/2, 0
	end := len(snap)
	if delta {
		end = max(len(snap), min(total, held))
	}
	h.drop()
	h.dirty = h.dirty[:0]
	for i, off := 0, 0; off < end && (delta || !lent); i, off = i+1, off+pageSize {
		page := snap[min(off, len(snap)):min(off+pageSize, len(snap))]
		fresh := i >= len(h.pages) || len(h.pages[i]) != len(page)
		dirty := false
		if delta {
			if dirty = h.differs(i, page, min(off+pageSize, total)-off); dirty {
				h.dirty = append(h.dirty, i)
			}
		} else if !fresh {
			dirty = h.differs(i, page, len(page))
		}
		switch {
		case lent || len(page) == 0:
		case fresh || dirty:
			changed += len(page)
			lent = changed > budget
			h.next = append(h.next, page) // copied below, unless snap is lent whole
		default:
			h.next = append(h.next, h.pages[i])
		}
	}
	if lent {
		h.next = h.next[:0]
		for lo := 0; lo < len(snap); lo += pageSize {
			h.next = append(h.next, snap[lo:min(lo+pageSize, len(snap))])
		}
		return
	}
	for i, page := range h.next {
		if &page[0] == &snap[i*pageSize] { // changed: still aliases snap
			h.next[i] = append(make([]byte, 0, len(page)), page...)
		}
	}
}

// drop empties next, keeping none of its pages reachable.
func (h *heldImage) drop() {
	clear(h.next[:cap(h.next)])
	h.next = h.next[:0]
}

// commit makes the pending capture, if there is one, the held image: its file
// is durable. The pages its payload borrowed are the held image's now.
func (h *heldImage) commit() {
	if h.pendingIndex == 0 {
		return
	}
	h.pages, h.next = h.next, h.pages
	h.prevIndex, h.chain = h.pendingIndex, h.chain%BaseEvery+1 // a base starts a chain of one
	h.abort()
}

// abort drops the pending capture, if there is one: the held image stays the
// last committed one.
func (h *heldImage) abort() {
	h.drop()
	h.pendingIndex = 0
}

// file builds the capture's checkpoint file: the record encodeCkptFile packs.
// A coordinated capture carries no dependencies or library state.
func (c *ckptCapture) file(v Variant) [][]byte {
	return encodeCkptFile(v, CkptFile{Index: c.index, Prev: c.prev, Deps: c.deps, Lib: c.lib}, c.image, c.pad)
}

// framing is the size of f's record under v besides its state section: index,
// chain pointer (incremental capture only), dependency count and edges, state
// length, and the length-prefixed library section.
func framing(v Variant, f CkptFile) int {
	n := 8 + 8 + 16*len(f.Deps) + 8 + 8 + len(f.Lib)
	if v.Incremental() {
		n += 8
	}
	return n
}

// encodeCkptFile packs a checkpoint file for the variant as the list of slices
// the segmented writer gathers it from, its state section being image's parts
// then pad zero bytes (f.State, the decoded file's section, is not read).
// Nothing of the state is copied: the file is [header, parts…, zeros…,
// trailer], the parts being what heldImage.capture gathered — a full image's
// pages or an incremental payload's framing and literals, the literals and
// pages being the snapshot lent as the program returned it (par.Snapshotter:
// freshly owned, never written again), or pages of earlier snapshots and
// copies of changed pages, all never written again — and the zeros borrows of
// zeroPage, so the padded image exists nowhere on the host. Header and trailer
// are two ends of one exactly sized, freshly owned buffer (see codec's Buffer
// ownership); with no state between them the record is that one buffer.
func encodeCkptFile(v Variant, f CkptFile, image [][]byte, pad int) [][]byte {
	w := codec.NewWriterSize(framing(v, f))
	w.Int(f.Index)
	if v.Incremental() {
		w.Int(f.Prev)
	}
	w.Int(len(f.Deps))
	for _, d := range f.Deps {
		w.Int(d.SrcRank)
		w.U64(d.SrcIndex)
	}
	w.Int(fileLen(image) + pad)
	file := make([][]byte, 1, 2+len(image)+(pad+len(zeroPage)-1)/len(zeroPage))
	for _, part := range image {
		if len(part) > 0 {
			file = append(file, part)
		}
	}
	for n := pad; n > 0; n -= min(n, len(zeroPage)) {
		file = append(file, zeroPage[:min(n, len(zeroPage))])
	}
	split := w.Len()
	w.Bytes8(f.Lib)
	buf := w.Bytes()
	if len(file) == 1 {
		file[0] = buf // nothing borrowed in between: the record is one slice
		return file
	}
	file[0] = buf[:split]
	return append(file, buf[split:])
}

// decodeCkptFile unpacks a checkpoint record written under the variant; the
// one reader (Replayer) is its caller. State and Lib are borrowed, not
// copied: files are decoded out of immutable storage blobs and the sections
// are only ever read (restore paths decode them into fresh structures, chain
// replay only reads payloads).
func decodeCkptFile(v Variant, b []byte) (CkptFile, error) {
	r := codec.NewReader(b)
	f := CkptFile{Index: r.Int()}
	if v.Incremental() {
		f.Prev = r.Int()
	}
	n := r.Int()
	if r.Err() != nil || n < 0 || n > r.Remaining()/16 { // 16 B per dep: see DecodeChanLog
		return CkptFile{}, fmt.Errorf("ckpt: corrupt checkpoint header")
	}
	f.Deps = make([]Dep, 0, n)
	for i := 0; i < n; i++ {
		f.Deps = append(f.Deps, Dep{SrcRank: r.Int(), SrcIndex: r.U64()})
	}
	f.State = r.Bytes8Borrow()
	f.Lib = r.Bytes8Borrow()
	if r.Err() != nil {
		return CkptFile{}, fmt.Errorf("ckpt: corrupt checkpoint: %v", r.Err())
	}
	return f, nil
}
