package ckpt

import (
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

// encodeCkptFile packs a checkpoint file for the variant as the list of slices
// the segmented writer gathers it from, its state section being f.State
// followed by pad zero bytes. Under full capture nothing of the image is
// copied: the file is [header, f.State, zeros…, trailer], f.State being the
// snapshot as the program returned it (par.Snapshotter: freshly owned, never
// written again) and the zeros borrows of zeroPage, so the padded image exists
// nowhere on the host. An incremental payload lives in pooled scratch that
// dies with the write job, before the stored file does, so it is embedded —
// its one copy — and the record is a single buffer. Header and trailer are
// two ends of one exactly sized, freshly owned buffer (see codec/pool.go).
func encodeCkptFile(v Variant, f CkptFile, pad int) [][]byte {
	n := 8 + 8 + 16*len(f.Deps) + 8 + 8 + len(f.Lib)
	if v.Incremental() {
		n += 8 + len(f.State)
	}
	w := codec.NewWriterSize(n)
	w.Int(f.Index)
	if v.Incremental() {
		w.Int(f.Prev)
	}
	w.Int(len(f.Deps))
	for _, d := range f.Deps {
		w.Int(d.SrcRank)
		w.U64(d.SrcIndex)
	}
	w.Int(len(f.State) + pad)
	file := make([][]byte, 1, 3+(pad+len(zeroPage)-1)/len(zeroPage))
	if v.Incremental() {
		w.Raw(f.State)
	} else if len(f.State) > 0 {
		file = append(file, f.State)
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

// encodeRawImage is the slot file of a full-image coordinated round: the raw
// padded image — the snapshot, borrowed as encodeCkptFile borrows it, and the
// process image's zeros. Decoders read length-prefixed fields, so the trailing
// padding is inert on recovery.
func encodeRawImage(snapshot []byte, pad int) [][]byte {
	return appendZeros([][]byte{snapshot}, pad)
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
