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

// CkptFile is the content of one durable checkpoint file in the record
// format: every file of the local-timer families, and the slot files of
// incremental coordinated rounds (which leave Deps and Lib empty; full-image
// coordinated rounds write the raw padded image instead).
type CkptFile struct {
	Index int // per-node checkpoint index, or the round number
	// Prev is the chain pointer, on disk exactly when capture is incremental:
	// 0 for a base image, else the index of the durable checkpoint the delta
	// in State was encoded against.
	Prev  int
	Deps  []Dep  // receive edges of the interval the checkpoint closed
	State []byte // padded program image, or the base/delta payload
	Lib   []byte // message-layer state (sequence counters, for log-based recovery)
}

// zeroPage is the padding of every process image: one page of writeSegment
// zero bytes that every checkpoint file's tail borrows, however many files are
// in flight or stored, on however many machines of the process. It is shared
// and immutable — nothing in the tree writes it, storage never writes an
// extent, and readers of stored files treat what they borrow as read-only —
// and the tests hold it to that after everything has run (ZeroPageIntact).
var zeroPage = make([]byte, writeSegment)

// ZeroPageIntact reports whether the shared zero page still holds only zeros.
// A false answer means some holder of a checkpoint file's bytes — a stored
// extent, a read borrow, a decoded State — was written; test binaries ask once
// everything has run.
func ZeroPageIntact() bool {
	return !slices.ContainsFunc(zeroPage, func(b byte) bool { return b != 0 })
}

// appendZeros appends n zero bytes to file as borrows of zeroPage.
func appendZeros(file [][]byte, n int) [][]byte {
	for ; n > 0; n -= min(n, len(zeroPage)) {
		file = append(file, zeroPage[:min(n, len(zeroPage))])
	}
	return file
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

// heldImage is a node's last captured full image as page-size slices: the
// memory its next checkpoint file borrows wherever the new snapshot did not
// change. Each page is a page of the last snapshot lent whole or a copy of a
// changed page in an allocation of its own, and nothing ever writes one: the
// lent snapshot by par.Snapshotter's promise, a copy because its only writer
// is the copy. So any number of stored files share an unchanged page, and the
// host holds each distinct page once however many files are kept.
type heldImage [][]byte

// share returns the parts a full-image file gathers snap from, in order, and
// makes snap the held image. Either way the parts join to snap.
//
// snap is lent whole — the one part is snap itself, and the held image becomes
// pages of it — when nothing is held (a node's first capture; a restarted
// node's held image died with it), when more than half of its bytes lie in
// changed pages, or when it is shorter than the held image. An app that
// rewrites most of its state every interval (ASP, GAUSS, NBODY, TSP, NQUEENS)
// pays one compare per page that fails on the page's first bytes, until half
// the pages have failed. ISING's snapshot carries its read-only coupling
// rows, most of its bytes, so from its second capture on its files borrow
// them and copy the spin pages, and SOR's files often borrow unchanged rows.
//
// Otherwise snap is garbage once share returns: an unchanged page is borrowed
// from the held image, and a changed one is copied into an allocation of its
// own, which the held image then holds. A held page thus never pins bytes no
// file or held page needs, and with no bookkeeping the held image keeps at
// most twice its own size reachable: pages of the last snapshot lent whole,
// which was no longer than the image because a shrink is lent whole, and
// copies, which are pages of the image. No part aliases snap.
func (h *heldImage) share(snap []byte, pageSize int) [][]byte {
	held := *h
	shrank, budget := len(snap) < fileLen(held), len(snap)/2
	changed, pages := 0, 0
	for lo := 0; lo < len(snap) && changed <= budget && !shrank; lo += pageSize {
		page := snap[lo:min(lo+pageSize, len(snap))]
		switch {
		case pages == len(held):
			held = append(held, page)
			changed += len(page)
		case !bytes.Equal(held[pages], page):
			held[pages] = page
			changed += len(page)
		}
		pages++
	}
	if shrank || changed > budget {
		old := len(held)
		held = held[:0]
		for lo := 0; lo < len(snap); lo += pageSize {
			held = append(held, snap[lo:min(lo+pageSize, len(snap))])
		}
		clear(held[len(held):max(old, len(held))]) // a shorter image's list must not keep old pages reachable
		*h = held
		return [][]byte{snap}
	}
	held = held[:pages]
	var parts [][]byte
	for i, page := range held {
		if &page[0] == &snap[i*pageSize] { // changed: still aliases snap
			page = append(make([]byte, 0, len(page)), page...)
			held[i] = page
		}
		// A page that continues the last part's memory extends it: the
		// unchanged runs of one lent snapshot travel as single parts.
		if n := len(parts); n > 0 {
			if last := parts[n-1]; cap(last) > len(last) && &last[:len(last)+1][len(last)] == &page[0] {
				parts[n-1] = last[:len(last)+len(page)]
				continue
			}
		}
		parts = append(parts, page)
	}
	*h = held
	return parts
}

// encodeCkptFile packs a checkpoint file for the variant as the list of slices
// the segmented writer gathers it from, its state section being f.State, then
// image's parts, then pad zero bytes. f.State is embedded — its one copy — and
// is the incremental payload, which lives in pooled scratch that dies with the
// write job, before the stored file does; the record is then a single buffer.
// A full image is passed as image and nothing of it is copied: the file is
// [header, parts…, zeros…, trailer], the parts being what heldImage.share
// returned — the snapshot lent as the program returned it (par.Snapshotter:
// freshly owned, never written again), or pages of earlier snapshots and
// copies of changed pages, all never written again — and the zeros borrows of
// zeroPage, so the padded image exists nowhere on the host. Header and trailer
// are two ends of one exactly sized, freshly owned buffer (see codec/pool.go).
func encodeCkptFile(v Variant, f CkptFile, image [][]byte, pad int) [][]byte {
	n := 8 + 8 + 16*len(f.Deps) + 8 + 8 + len(f.Lib)
	if v.Incremental() {
		n += 8
	}
	w := codec.NewWriterSize(n + len(f.State))
	w.Int(f.Index)
	if v.Incremental() {
		w.Int(f.Prev)
	}
	w.Int(len(f.Deps))
	for _, d := range f.Deps {
		w.Int(d.SrcRank)
		w.U64(d.SrcIndex)
	}
	w.Int(len(f.State) + fileLen(image) + pad)
	w.Raw(f.State)
	file := make([][]byte, 1, 2+len(image)+(pad+len(zeroPage)-1)/len(zeroPage))
	for _, part := range image {
		if len(part) > 0 {
			file = append(file, part)
		}
	}
	file = appendZeros(file, pad)
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
