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

// Replayer reconstructs incremental checkpoints from their durable chains
// into buffers it owns: the image under replay, and one buffer per chain link
// for fetches that copy (the oracle's Peek). The image it returns is borrowed
// until its next reconstruction. Recovery, which reconstructs once per rank,
// uses a fresh zero value.
type Replayer struct {
	codec codec.Replayer
	links [BaseEvery][]byte
}

// ReconstructCkpt replays the base+delta chain ending at rank's checkpoint
// index as the variant laid it out on stable storage, following each file's
// Prev pointer — never assuming the cadence. fetch returns one durable file's
// bytes by path: a storage read's borrow, or a copy appended to buf[:0], which
// is then that link's buffer again at the next reconstruction. It returns the
// full image and the decoded head file, whose Lib a restore also needs.
// Errors name the chain link that failed to resolve — the delta round a
// broken chain points at.
func (rp *Replayer) ReconstructCkpt(v Variant, rank, index int, fetch func(path string, buf []byte) ([]byte, error)) ([]byte, CkptFile, error) {
	var head CkptFile
	chain := make([][]byte, 0, BaseEvery)
	for idx := index; ; {
		path := v.StatePath(rank, idx)
		data, err := fetch(path, rp.links[len(chain)])
		var f CkptFile
		if err == nil {
			rp.links[len(chain)] = data
			f, err = DecodeCkptFile(v, data)
		}
		if err == nil && f.Index != idx {
			err = fmt.Errorf("%s holds index %d, want %d", path, f.Index, idx)
		}
		if err != nil {
			return nil, head, fmt.Errorf("ckpt: delta chain for checkpoint %d broken at link %d: %w", index, idx, err)
		}
		if idx == index {
			head = f
		}
		chain = append(chain, f.State)
		if f.Prev == 0 {
			break
		}
		if f.Prev >= idx || len(chain) >= BaseEvery {
			return nil, head, fmt.Errorf("ckpt: delta chain for checkpoint %d malformed at link %d (prev %d, length %d)",
				index, idx, f.Prev, len(chain))
		}
		idx = f.Prev
	}
	slices.Reverse(chain)
	img, err := rp.codec.Replay(chain)
	if err != nil {
		return nil, head, fmt.Errorf("ckpt: replaying delta chain for checkpoint %d: %w", index, err)
	}
	return img, head, nil
}
