package ckpt

import (
	"fmt"
	"slices"

	"repro/internal/codec"
	"repro/internal/par"
)

// BaseEvery is the incremental variants' chain length K: every K-th
// checkpoint of a node is a full base image, the K-1 between are page
// deltas. Recovery never assumes the cadence — it follows each file's Prev
// pointer — but the cadence bounds every chain to K files.
const BaseEvery = 4

// IncCapture is the per-node encoder state an incremental scheme carries: a
// dirty tracker holding the last durable image and the chain bookkeeping that
// decides when the next checkpoint must be a base. An image is a snapshot
// followed by the process image's zero padding, which is never materialised:
// the snapshot is encoded where the program returned it, and once its
// checkpoint is durable that very slice is the baseline the next capture
// diffs against — lent by the program, which never writes it again
// (par.Snapshotter), and held until the next Commit. Schemes call EncodeTo
// when capturing, then Commit only once the file is durable (for coordinated
// rounds: committed) — a skipped or aborted checkpoint leaves the capture
// untouched, so the next EncodeTo re-diffs against the last checkpoint that
// actually exists and Prev pointers always name durable checkpoints.
type IncCapture struct {
	tracker   *par.DirtyTracker
	pad       int
	prevIndex int
	sinceBase int
}

// NewIncCapture returns a capture diffing at the given page size (a node's
// par.StatePageSizeOf) images that are a snapshot followed by pad zero bytes
// (the machine's process image). The capture starts unprimed, so the first
// checkpoint of an incarnation — including the first after a recovery — is a
// base.
func NewIncCapture(pageSize, pad int) *IncCapture {
	return &IncCapture{tracker: par.NewDirtyTracker(pageSize), pad: pad}
}

// EncodeTo writes the payload for a checkpoint of snap's image into w and
// returns it with its chain pointer: a zero-run-compressed base (prev 0) at
// the start of each chain, a page delta against the previous durable image
// otherwise. The schemes pass pooled scratch here: the payload only lives
// until it is embedded (copied) into the enclosing checkpoint file by
// encodeCkptFile, so the writer is freed right after the embed and
// steady-state incremental capture allocates no payload buffers. The returned
// bytes alias w's buffer.
func (ic *IncCapture) EncodeTo(w *codec.Writer, snap []byte) (payload []byte, prev int) {
	if ic.tracker.Primed() && ic.sinceBase < BaseEvery-1 {
		return ic.tracker.DeltaTo(w, snap, ic.pad), ic.prevIndex
	}
	return codec.EncodeBaseImageTo(w, snap, ic.pad), 0
}

// Commit records that the checkpoint of snap's image at index, encoded with
// chain pointer prev, became durable: snap itself is the new diff baseline.
func (ic *IncCapture) Commit(index int, snap []byte, prev int) {
	ic.tracker.RetainPadded(snap, ic.pad)
	if prev == 0 {
		ic.sinceBase = 0
	} else {
		ic.sinceBase++
	}
	ic.prevIndex = index
}

// Replayer is the one reader of durable checkpoints: it reads rank's
// checkpoint back from stable storage whatever the variant laid out there,
// into buffers it owns — the image under replay, and one buffer per chain
// link for fetches that copy (the oracle's Peek). What it returns is
// borrowed until its next read. Recovery, which reads once per rank, uses a
// fresh zero value.
type Replayer struct {
	codec codec.Replayer
	links [BaseEvery][]byte
}

// ReadHead reads only the head file of rank's checkpoint index — the file its
// commit wrote — without following a chain or holding the file to index, so
// that an audit can compare each field with its record. A raw image (a
// full-image coordinated round's slot file) is its own head: Index is index,
// State the image. An error means the file could not be fetched or decoded.
// fetch is as for ReconstructCkpt.
func (rp *Replayer) ReadHead(v Variant, rank, index int, fetch func(path string, buf []byte) ([]byte, error)) (CkptFile, error) {
	return rp.readLink(v, rank, index, 0, fetch)
}

// readLink fetches and decodes the file of rank's checkpoint idx into link
// buffer i.
func (rp *Replayer) readLink(v Variant, rank, idx, i int, fetch func(path string, buf []byte) ([]byte, error)) (CkptFile, error) {
	path := v.StatePath(rank, idx)
	data, err := fetch(path, rp.links[i])
	if err != nil {
		return CkptFile{}, err
	}
	rp.links[i] = data
	if v.RawImage() {
		return CkptFile{Index: idx, State: data}, nil
	}
	f, err := decodeCkptFile(v, data)
	if err != nil {
		return CkptFile{}, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// ReconstructCkpt reads rank's checkpoint index as the variant laid it out on
// stable storage and returns the image a restore hands the program, and the
// head file, whose Lib a restore also needs. The three layouts:
//
//   - a full-image coordinated round's slot file is the raw padded image,
//     returned as it is (the commit record, not the file, says which round
//     the slot holds);
//   - a full-image local-timer file is one record, whose Index must be index;
//   - an incremental file heads a base+delta chain, replayed by following each
//     file's Prev pointer — never assuming the cadence — with every link's
//     Index verified.
//
// fetch returns one durable file's bytes by path: a storage read's borrow, or
// a copy appended to buf[:0], which is then that link's buffer again at the
// next read. Errors name the link that failed to resolve — the delta round a
// broken chain points at.
func (rp *Replayer) ReconstructCkpt(v Variant, rank, index int, fetch func(path string, buf []byte) ([]byte, error)) ([]byte, CkptFile, error) {
	var head CkptFile
	chain := make([][]byte, 0, BaseEvery)
	for idx := index; ; {
		f, err := rp.readLink(v, rank, idx, len(chain), fetch)
		if err == nil && f.Index != idx {
			err = fmt.Errorf("%s holds index %d, want %d", v.StatePath(rank, idx), f.Index, idx)
		}
		if err != nil {
			return nil, CkptFile{}, fmt.Errorf("ckpt: rank %d checkpoint %d broken at link %d: %w", rank, index, idx, err)
		}
		if !v.Incremental() {
			return f.State, f, nil
		}
		if idx == index {
			head = f
		}
		chain = append(chain, f.State)
		if f.Prev == 0 {
			break
		}
		if f.Prev >= idx || len(chain) >= BaseEvery {
			return nil, CkptFile{}, fmt.Errorf("ckpt: rank %d checkpoint %d: delta chain malformed at link %d (prev %d, length %d)",
				rank, index, idx, f.Prev, len(chain))
		}
		idx = f.Prev
	}
	slices.Reverse(chain)
	img, err := rp.codec.Replay(chain)
	if err != nil {
		return nil, CkptFile{}, fmt.Errorf("ckpt: rank %d checkpoint %d: replaying delta chain: %w", rank, index, err)
	}
	return img, head, nil
}
